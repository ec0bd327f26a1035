//! One Criterion benchmark per paper table/figure.
//!
//! Each benchmark runs the corresponding experiment driver — or, for
//! Figs. 6–8, the committed grid spec — at smoke scale (both are
//! scale-parameterised; `repro --scale default|full` regenerates the
//! actual results). Benchmarking them end-to-end keeps the regeneration
//! path exercised and tracks its cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alba_grid::{run_grid, GridSpec, RunOptions};
use alba_ml::ModelFamily;
use albadross::experiments::{
    render_setup_tables, run_curves, run_table4, CurvesConfig, DrilldownResult, Table4Config,
};
use albadross::prelude::*;

fn scale() -> RunScale {
    RunScale::smoke(42)
}

fn bench_tables_setup(c: &mut Criterion) {
    c.bench_function("paper/tables_1_2_3_setup", |b| b.iter(|| black_box(render_setup_tables())));
}

fn bench_fig3(c: &mut Criterion) {
    c.bench_function("paper/fig3_volta_curves", |b| {
        b.iter(|| {
            black_box(run_curves(&CurvesConfig {
                system: System::Volta,
                method: Some(FeatureMethod::Mvts),
                scale: scale(),
                include_proctor: false,
            }))
        })
    });
}

fn bench_fig4(c: &mut Criterion) {
    let curves = run_curves(&CurvesConfig {
        system: System::Volta,
        method: Some(FeatureMethod::Mvts),
        scale: scale(),
        include_proctor: false,
    });
    c.bench_function("paper/fig4_query_drilldown", |b| {
        b.iter(|| black_box(DrilldownResult::from_curves(&curves, "uncertainty", 10)))
    });
}

fn bench_fig5(c: &mut Criterion) {
    c.bench_function("paper/fig5_eclipse_curves", |b| {
        b.iter(|| {
            black_box(run_curves(&CurvesConfig {
                system: System::Eclipse,
                method: Some(FeatureMethod::Mvts),
                scale: scale(),
                include_proctor: false,
            }))
        })
    });
}

/// Benchmarks one committed figure spec (`specs/<id>.json`) through the
/// grid runner, storeless, at smoke scale.
fn bench_figure_spec(c: &mut Criterion, name: &str, id: &str) {
    let path = format!("{}/../../specs/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("read committed figure spec");
    let spec = GridSpec::parse(&src, Some(&scale())).expect("parse figure spec");
    c.bench_function(name, |b| {
        b.iter(|| black_box(run_grid(&spec, &RunOptions::default()).expect("figure grid")))
    });
}

fn bench_fig6(c: &mut Criterion) {
    bench_figure_spec(c, "paper/fig6_unseen_apps", "fig6");
}

fn bench_fig7(c: &mut Criterion) {
    bench_figure_spec(c, "paper/fig7_robustness", "fig7");
}

fn bench_fig8(c: &mut Criterion) {
    bench_figure_spec(c, "paper/fig8_unseen_inputs", "fig8");
}

fn bench_table4(c: &mut Criterion) {
    c.bench_function("paper/table4_grid_search_lr", |b| {
        b.iter(|| {
            black_box(run_table4(&Table4Config {
                system: System::Volta,
                families: vec![ModelFamily::Lr],
                k_folds: 3,
                max_samples: Some(80),
                scale: scale(),
            }))
        })
    });
}

fn bench_table5(c: &mut Criterion) {
    // Table V combines the curves results with two ceiling computations;
    // the ceilings are the part not covered by the fig3/fig5 benches.
    let data = SystemData::generate(System::Volta, FeatureMethod::Mvts, Scale::Smoke, 42);
    c.bench_function("paper/table5_pool_ceiling", |b| {
        b.iter(|| black_box(albadross::experiments::table5::pool_ceiling(&data, &scale(), true)))
    });
    c.bench_function("paper/table5_cv_ceiling", |b| {
        b.iter(|| black_box(albadross::experiments::table5::cv_ceiling(&data, &scale(), true)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tables_setup, bench_fig3, bench_fig4, bench_fig5, bench_fig6,
              bench_fig7, bench_fig8, bench_table4, bench_table5
}
criterion_main!(benches);
