//! Declarative grid specs: JSON in, content-addressed cells out.
//!
//! Two modes share one file format (discriminated by `"mode"`):
//!
//! * **figure** — replays a paper figure through the grid runner; the
//!   `"figure"` field picks it (`curves` for Figs. 3 / 5, the default;
//!   `unseen_apps`, `robustness` and `unseen_inputs` for Figs. 6–8).
//!   Expansion and assembly live in [`crate::figure`].
//! * **sweep** — a cross-product over pipelines (extractor × model ×
//!   strategy × budget) and seeds, optionally with pool-label
//!   contamination; feeds the paired-statistics leaderboard.
//!
//! Parsing is hand-rolled over the [`serde::Value`] tree because the
//! vendored derive has no optional-field or default support; unknown
//! keys are rejected so typos fail loudly instead of silently running
//! the default grid.

use crate::cell::{CellSpec, CellTask, CELL_REV};
use crate::error::GridError;
use crate::figure::{expand_figure, Figure};
use alba_active::Strategy;
use alba_ml::{ModelFamily, ModelSpec};
use alba_telemetry::Scale;
use albadross::{FeatureMethod, RunScale, SplitConfig, System};
use serde::Value;

/// Sweep-mode noise-seed derivation constant (any fixed odd-ish value;
/// only has to differ from the other per-seed derivations).
const NOISE_SEED_SALT: u64 = 0x5EED_D1CE;

/// One expanded cell with its grid-level labels. `pipeline` and
/// `pair_id` are deliberately *not* part of [`CellSpec`] (and thus not
/// hashed): two grids labelling the same cell differently still share
/// one memo entry.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Position in expansion order (merge order).
    pub idx: usize,
    /// Leaderboard grouping key (e.g. `MVTS+RF+margin+b12`).
    pub pipeline: String,
    /// Pairing key for the paired tests: cells of different pipelines
    /// with equal `pair_id` share a split and are compared head-to-head.
    pub pair_id: u64,
    /// The content-addressed cell.
    pub spec: CellSpec,
}

/// Figure-mode parameters.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Which figure to replay.
    pub figure: Figure,
    /// System to evaluate.
    pub system: System,
    /// Feature method (`None` = the system's Table V best).
    pub method: Option<FeatureMethod>,
    /// Whether to run the Proctor baseline.
    pub include_proctor: bool,
    /// Sizing (from the spec file or a CLI override).
    pub scale: RunScale,
}

/// Sweep-mode parameters.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// System to evaluate.
    pub system: System,
    /// Campaign size.
    pub campaign: Scale,
    /// Feature extractors to cross.
    pub extractors: Vec<FeatureMethod>,
    /// Query strategies to cross.
    pub strategies: Vec<Strategy>,
    /// Model families to cross (each resolved via `ModelSpec::tuned`).
    pub models: Vec<ModelFamily>,
    /// Label budgets to cross.
    pub budgets: Vec<usize>,
    /// Master seeds; each seed is one paired replicate.
    pub seeds: Vec<u64>,
    /// Train fraction of each split.
    pub train_fraction: f64,
    /// Chi-square-selected feature count.
    pub top_k_features: usize,
    /// Labels per re-train.
    pub batch: usize,
    /// Percent of pool labels flipped (label-noise robustness axis).
    pub contamination_pct: f64,
}

/// Which of the two grid modes a spec uses.
#[derive(Clone, Debug)]
pub enum GridMode {
    /// Paper-figure replay.
    Figure(FigureSpec),
    /// Pipeline cross-product.
    Sweep(SweepSpec),
}

/// A parsed grid spec.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Grid name; output lands in `results/grid_<name>.json`.
    pub name: String,
    /// Mode payload.
    pub mode: GridMode,
}

// ---------------------------------------------------------------- parsing

fn spec_err(msg: impl std::fmt::Display) -> GridError {
    GridError::Spec(msg.to_string())
}

/// Object-field reader that tracks which keys were consumed, so the
/// parser can reject unknown keys at the end.
struct Fields<'a> {
    entries: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value) -> Result<Self, GridError> {
        let entries = v
            .as_object()
            .ok_or_else(|| spec_err(format!("expected a JSON object, got {}", v.kind())))?;
        Ok(Fields { entries, seen: vec![false; entries.len()] })
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn require(&mut self, key: &str) -> Result<&'a Value, GridError> {
        self.get(key).ok_or_else(|| spec_err(format!("missing required field `{key}`")))
    }

    fn finish(&self) -> Result<(), GridError> {
        let unknown: Vec<&str> = self
            .entries
            .iter()
            .zip(&self.seen)
            .filter(|(_, &seen)| !seen)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(spec_err(format!("unknown field(s): {}", unknown.join(", "))))
        }
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, GridError> {
    match v {
        Value::Num(serde::Number::U(n)) => Ok(*n),
        Value::Num(serde::Number::I(n)) if *n >= 0 => Ok(*n as u64),
        _ => Err(spec_err(format!("field `{key}` must be a non-negative integer"))),
    }
}

fn as_usize(v: &Value, key: &str) -> Result<usize, GridError> {
    Ok(as_u64(v, key)? as usize)
}

fn as_f64(v: &Value, key: &str) -> Result<f64, GridError> {
    match v {
        Value::Num(serde::Number::U(n)) => Ok(*n as f64),
        Value::Num(serde::Number::I(n)) => Ok(*n as f64),
        Value::Num(serde::Number::F(x)) => Ok(*x),
        _ => Err(spec_err(format!("field `{key}` must be a number"))),
    }
}

fn as_bool(v: &Value, key: &str) -> Result<bool, GridError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(spec_err(format!("field `{key}` must be a boolean"))),
    }
}

fn as_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, GridError> {
    v.as_str().ok_or_else(|| spec_err(format!("field `{key}` must be a string")))
}

fn parse_system(s: &str) -> Result<System, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "volta" => Ok(System::Volta),
        "eclipse" => Ok(System::Eclipse),
        _ => Err(spec_err(format!("unknown system `{s}` (volta|eclipse)"))),
    }
}

fn parse_method(s: &str) -> Result<FeatureMethod, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "mvts" => Ok(FeatureMethod::Mvts),
        "tsfresh" => Ok(FeatureMethod::TsFresh),
        _ => Err(spec_err(format!("unknown feature method `{s}` (mvts|tsfresh)"))),
    }
}

fn parse_strategy(s: &str) -> Result<Strategy, GridError> {
    Strategy::ALL.iter().copied().find(|st| st.name() == s.to_ascii_lowercase()).ok_or_else(|| {
        spec_err(format!("unknown strategy `{s}` (uncertainty|margin|entropy|random|equal_app)"))
    })
}

fn parse_family(s: &str) -> Result<ModelFamily, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "lr" => Ok(ModelFamily::Lr),
        "rf" => Ok(ModelFamily::Rf),
        "lgbm" => Ok(ModelFamily::Lgbm),
        "mlp" => Ok(ModelFamily::Mlp),
        _ => Err(spec_err(format!("unknown model family `{s}` (lr|rf|lgbm|mlp)"))),
    }
}

fn parse_campaign(s: &str) -> Result<Scale, GridError> {
    match s.to_ascii_lowercase().as_str() {
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "full" => Ok(Scale::Full),
        _ => Err(spec_err(format!("unknown campaign `{s}` (smoke|default|full)"))),
    }
}

fn str_list<'a>(v: &'a Value, key: &str) -> Result<Vec<&'a str>, GridError> {
    let items = v.as_array().ok_or_else(|| spec_err(format!("field `{key}` must be an array")))?;
    if items.is_empty() {
        return Err(spec_err(format!("field `{key}` must be non-empty")));
    }
    items.iter().map(|it| as_str(it, key)).collect()
}

fn num_list<T>(
    v: &Value,
    key: &str,
    conv: impl Fn(&Value, &str) -> Result<T, GridError>,
) -> Result<Vec<T>, GridError> {
    let items = v.as_array().ok_or_else(|| spec_err(format!("field `{key}` must be an array")))?;
    if items.is_empty() {
        return Err(spec_err(format!("field `{key}` must be non-empty")));
    }
    items.iter().map(|it| conv(it, key)).collect()
}

impl GridSpec {
    /// Parses a grid spec from JSON source. `scale_override` (figure
    /// mode only) substitutes the spec file's sizing — this is how the
    /// CLI's `--scale`/`--seed` flags reach a committed spec file.
    pub fn parse(src: &str, scale_override: Option<&RunScale>) -> Result<GridSpec, GridError> {
        let root =
            serde_json::parse_value(src).map_err(|e| spec_err(format!("invalid JSON: {e}")))?;
        let mut f = Fields::new(&root)?;
        let name = as_str(f.require("name")?, "name")?.to_string();
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(spec_err(format!(
                "grid name `{name}` must be non-empty [A-Za-z0-9_-] (it names the output file)"
            )));
        }
        let mode = as_str(f.require("mode")?, "mode")?.to_string();
        let spec = match mode.as_str() {
            "figure" => Self::parse_figure(name, &mut f, scale_override)?,
            "sweep" => Self::parse_sweep(name, &mut f)?,
            other => return Err(spec_err(format!("unknown mode `{other}` (figure|sweep)"))),
        };
        f.finish()?;
        Ok(spec)
    }

    fn parse_figure(
        name: String,
        f: &mut Fields<'_>,
        scale_override: Option<&RunScale>,
    ) -> Result<GridSpec, GridError> {
        let figure = match f.get("figure").map(|v| as_str(v, "figure")).transpose()? {
            None | Some("curves") => Figure::Curves,
            Some("unseen_apps") => Figure::UnseenApps,
            Some("robustness") => Figure::Robustness,
            Some("unseen_inputs") => Figure::UnseenInputs,
            Some(other) => {
                return Err(spec_err(format!(
                    "unknown figure `{other}` (curves|unseen_apps|robustness|unseen_inputs)"
                )))
            }
        };
        let system = parse_system(as_str(f.require("system")?, "system")?)?;
        let method = match f.get("method") {
            Some(v) => Some(parse_method(as_str(v, "method")?)?),
            None => None,
        };
        let include_proctor = match f.get("include_proctor") {
            Some(_) if figure != Figure::Curves => {
                return Err(spec_err("`include_proctor` applies only to figure `curves`"))
            }
            Some(v) => as_bool(v, "include_proctor")?,
            None => true,
        };
        // The spec file's sizing; a CLI override wins wholesale (both
        // scale name and seed).
        let json_scale = f.get("scale").map(|v| as_str(v, "scale")).transpose()?;
        let json_seed = f.get("seed").map(|v| as_u64(v, "seed")).transpose()?;
        let scale = match scale_override {
            Some(s) => s.clone(),
            None => {
                let scale_name = json_scale
                    .ok_or_else(|| spec_err("figure spec needs `scale` (or a CLI override)"))?;
                let seed = json_seed
                    .ok_or_else(|| spec_err("figure spec needs `seed` (or a CLI override)"))?;
                RunScale::parse(scale_name, seed)
                    .ok_or_else(|| spec_err(format!("unknown scale `{scale_name}`")))?
            }
        };
        Ok(GridSpec {
            name,
            mode: GridMode::Figure(FigureSpec { figure, system, method, include_proctor, scale }),
        })
    }

    fn parse_sweep(name: String, f: &mut Fields<'_>) -> Result<GridSpec, GridError> {
        let system = parse_system(as_str(f.require("system")?, "system")?)?;
        let campaign = match f.get("campaign") {
            Some(v) => parse_campaign(as_str(v, "campaign")?)?,
            None => Scale::Smoke,
        };
        let extractors = match f.get("extractors") {
            Some(v) => str_list(v, "extractors")?
                .into_iter()
                .map(parse_method)
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![system.best_feature_method()],
        };
        let strategies = str_list(f.require("strategies")?, "strategies")?
            .into_iter()
            .map(parse_strategy)
            .collect::<Result<Vec<_>, _>>()?;
        let models = match f.get("models") {
            Some(v) => str_list(v, "models")?
                .into_iter()
                .map(parse_family)
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![ModelFamily::Rf],
        };
        let budgets = num_list(f.require("budgets")?, "budgets", as_usize)?;
        if budgets.contains(&0) {
            return Err(spec_err("budgets must be positive"));
        }
        let seeds = num_list(f.require("seeds")?, "seeds", as_u64)?;
        let train_fraction = match f.get("train_fraction") {
            Some(v) => as_f64(v, "train_fraction")?,
            None => 0.5,
        };
        if !(0.05..=0.95).contains(&train_fraction) {
            return Err(spec_err(format!("train_fraction {train_fraction} out of (0.05, 0.95)")));
        }
        let top_k_features = match f.get("top_k_features") {
            Some(v) => as_usize(v, "top_k_features")?,
            None => 150,
        };
        let batch = match f.get("batch") {
            Some(v) => as_usize(v, "batch")?,
            None => 1,
        };
        if batch == 0 {
            return Err(spec_err("batch must be positive"));
        }
        let contamination_pct = match f.get("contamination_pct") {
            Some(v) => as_f64(v, "contamination_pct")?,
            None => 0.0,
        };
        if !(0.0..=100.0).contains(&contamination_pct) {
            return Err(spec_err(format!("contamination_pct {contamination_pct} out of [0, 100]")));
        }
        Ok(GridSpec {
            name,
            mode: GridMode::Sweep(SweepSpec {
                system,
                campaign,
                extractors,
                strategies,
                models,
                budgets,
                seeds,
                train_fraction,
                top_k_features,
                batch,
                contamination_pct,
            }),
        })
    }

    /// Short mode name for reports.
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            GridMode::Figure(_) => "figure",
            GridMode::Sweep(_) => "sweep",
        }
    }

    /// Expands the spec into its cells, in canonical (merge) order.
    pub fn expand(&self) -> Vec<GridCell> {
        match &self.mode {
            GridMode::Figure(fig) => expand_figure(fig),
            GridMode::Sweep(sw) => expand_sweep(sw),
        }
    }
}

/// Sweep expansion: seed-major cross-product, so one seed's cells (one
/// paired replicate across every pipeline) are contiguous and share the
/// split cache.
fn expand_sweep(sw: &SweepSpec) -> Vec<GridCell> {
    let split =
        SplitConfig { train_fraction: sw.train_fraction, top_k_features: sw.top_k_features };
    let mut cells = Vec::new();
    for &seed in &sw.seeds {
        for &ext in &sw.extractors {
            for &fam in &sw.models {
                let model = ModelSpec::tuned(fam, sw.system == System::Volta);
                for &strat in &sw.strategies {
                    for &budget in &sw.budgets {
                        let mut pipeline =
                            format!("{}+{}+{}+b{}", ext.name(), fam.name(), strat.name(), budget);
                        if sw.contamination_pct > 0.0 {
                            pipeline.push_str(&format!("+n{}", sw.contamination_pct));
                        }
                        let spec = CellSpec {
                            rev: CELL_REV,
                            system: sw.system,
                            method: ext,
                            campaign: sw.campaign,
                            data_seed: seed,
                            split,
                            split_seed: seed ^ 0x9E37_79B9,
                            pool_seed: seed ^ 101,
                            session_seed: seed ^ 0xF00D,
                            contamination_pct: sw.contamination_pct,
                            noise_seed: seed ^ NOISE_SEED_SALT,
                            task: CellTask::Al {
                                strategy: strat,
                                model: model.clone(),
                                budget,
                                batch: sw.batch,
                            },
                        };
                        cells.push(GridCell { idx: cells.len(), pipeline, pair_id: seed, spec });
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: &str = r#"{
        "name": "fig3",
        "mode": "figure",
        "system": "volta",
        "scale": "smoke",
        "seed": 3
    }"#;

    const SWEEP: &str = r#"{
        "name": "mini",
        "mode": "sweep",
        "system": "eclipse",
        "strategies": ["uncertainty", "random"],
        "models": ["rf", "lr"],
        "budgets": [4, 8],
        "seeds": [1, 2, 3]
    }"#;

    #[test]
    fn figure_expansion_mirrors_run_curves_job_order() {
        let spec = GridSpec::parse(FIG, None).unwrap();
        assert_eq!(spec.name, "fig3");
        assert_eq!(spec.mode_name(), "figure");
        let cells = spec.expand();
        // smoke: 2 splits × (5 strategies × 1 repeat + proctor) = 12.
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].pipeline, "uncertainty");
        assert_eq!(cells[5].pipeline, "proctor");
        assert_eq!(cells[6].pipeline, "uncertainty");
        assert!(cells.iter().enumerate().all(|(i, c)| c.idx == i));
        // Seed formulas match run_curves' prepare_splits / session seeds.
        let scale = RunScale::smoke(3);
        assert_eq!(cells[0].spec.split_seed, scale.seed ^ 0x9E37_79B9);
        assert_eq!(cells[6].spec.split_seed, scale.seed ^ (2 * 0x9E37_79B9));
        assert_eq!(cells[0].spec.pool_seed, scale.seed ^ 101);
        assert_eq!(cells[0].spec.session_seed, scale.seed ^ 0xF00D);
        assert_eq!(cells[6].spec.session_seed, scale.seed ^ (1u64 << 16) ^ 0xF00D);
    }

    #[test]
    fn figure_scale_override_wins() {
        let over = RunScale::smoke(99);
        let spec = GridSpec::parse(FIG, Some(&over)).unwrap();
        let cells = spec.expand();
        assert_eq!(cells[0].spec.data_seed, 99);
    }

    #[test]
    fn held_out_figures_expand_the_paper_constants() {
        let expand = |figure: &str| {
            let src = FIG.replace("\"volta\"", &format!("\"volta\", \"figure\": \"{figure}\""));
            GridSpec::parse(&src, None).unwrap().expand()
        };
        // Fig. 6: 3 app counts × 5 combos × 2 strategies, driver seeds.
        let fig6 = expand("unseen_apps");
        assert_eq!(fig6.len(), 30);
        let combo_seed = 3 ^ (2u64 << 24);
        assert_eq!(fig6[0].pipeline, "uncertainty+k2");
        assert_eq!(fig6[1].pipeline, "random+k2");
        assert_eq!(fig6[0].spec.split_seed, combo_seed ^ 0x5);
        assert_eq!(fig6[0].spec.session_seed, combo_seed ^ 0x7);
        // Fig. 7: 5 combos × 4 app counts, then one fit per smoke split.
        let fig7 = expand("robustness");
        assert_eq!(fig7.len(), 5 * 4 + 2);
        assert_eq!(fig7[3].pipeline, "fit+k8");
        assert_eq!(fig7[20].pipeline, "fit+all_apps");
        assert_eq!(fig7[20].spec.split_seed, 3 ^ 0x9E37_79B9);
        // Fig. 8: 3 decks × 2 strategies.
        let fig8 = expand("unseen_inputs");
        assert_eq!(fig8.len(), 6);
        assert_eq!(fig8[2].spec.split_seed, 3 ^ 0xDEC ^ (1 << 12));
        let mut keys: Vec<String> =
            fig6.iter().chain(&fig7).chain(&fig8).map(|c| c.spec.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 58, "every cell is distinct");
    }

    #[test]
    fn sweep_expansion_is_seed_major_cross_product() {
        let spec = GridSpec::parse(SWEEP, None).unwrap();
        let cells = spec.expand();
        // 3 seeds × 1 extractor × 2 models × 2 strategies × 2 budgets.
        assert_eq!(cells.len(), 24);
        assert_eq!(cells[0].pair_id, 1);
        assert_eq!(cells[8].pair_id, 2);
        // Eclipse's best extractor (MVTS) is the default.
        assert_eq!(cells[0].pipeline, "MVTS+RF+uncertainty+b4");
        assert_eq!(cells[1].pipeline, "MVTS+RF+uncertainty+b8");
        // Distinct cells hash to distinct keys.
        let mut keys: Vec<String> = cells.iter().map(|c| c.spec.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 24);
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        let bad = FIG.replace("\"seed\": 3", "\"seed\": 3, \"sede\": 4");
        let err = GridSpec::parse(&bad, None).unwrap_err();
        assert!(err.to_string().contains("sede"), "{err}");
        let bad = SWEEP.replace("\"rf\"", "\"resnet\"");
        assert!(GridSpec::parse(&bad, None).is_err());
        let bad = SWEEP.replace("[4, 8]", "[]");
        assert!(GridSpec::parse(&bad, None).is_err());
        let bad = SWEEP.replace("\"seeds\"", "\"batch\": 0, \"seeds\"");
        let err = GridSpec::parse(&bad, None).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
        let bad = FIG.replace("\"figure\"", "\"figure\", \"figure\": \"fig9\"");
        assert!(GridSpec::parse(&bad, None).is_err(), "unknown figure");
        let bad = FIG.replace(
            "\"figure\"",
            "\"figure\", \"figure\": \"robustness\", \"include_proctor\": false",
        );
        assert!(GridSpec::parse(&bad, None).is_err(), "proctor only on curves");
        assert!(GridSpec::parse("{\"mode\": \"figure\"}", None).is_err(), "name required");
    }

    #[test]
    fn contamination_reaches_cells_and_pipeline_names() {
        let src =
            SWEEP.replace("\"seeds\": [1, 2, 3]", "\"seeds\": [1], \"contamination_pct\": 10.0");
        let spec = GridSpec::parse(&src, None).unwrap();
        let cells = spec.expand();
        assert!(cells.iter().all(|c| c.spec.contamination_pct == 10.0));
        assert!(cells[0].pipeline.ends_with("+n10"));
    }
}
