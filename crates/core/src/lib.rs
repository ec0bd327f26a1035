//! # albadross
//!
//! A from-scratch Rust reproduction of *"ALBADross: Active Learning Based
//! Anomaly Diagnosis for Production HPC Systems"* (Aksar et al., IEEE
//! CLUSTER 2022).
//!
//! The crate ties the workspace together into the paper's pipeline
//! (Fig. 1): telemetry campaigns ([`alba_telemetry`]) → statistical feature
//! extraction and chi-square selection ([`alba_features`]) → supervised
//! models ([`alba_ml`]) → pool-based active learning ([`alba_active`]) —
//! plus the Proctor semi-supervised baseline and one experiment driver per
//! table and figure of the evaluation.
//!
//! ```no_run
//! use albadross::prelude::*;
//!
//! // Reproduce Fig. 3 (Volta) at reduced scale:
//! let result = run_curves(&CurvesConfig {
//!     system: System::Volta,
//!     method: None, // Table V best (TSFRESH on Volta)
//!     scale: RunScale::default_scale(42),
//!     include_proctor: true,
//! });
//! println!("{}", result.render());
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod experiments;
pub mod monitor;
pub mod plot;
pub mod proctor;
pub mod report;
pub mod scale;
pub mod split;

pub use data::{FeatureMethod, System, SystemData, STORE_DIR_ENV};
pub use monitor::{Alarm, MonitorConfig, NodeMonitor, WindowVerdict};
pub use plot::{figure_panels, render_curves_svg};
pub use proctor::{run_proctor_session, Proctor, ProctorConfig};
pub use scale::RunScale;
pub use split::{
    prepare_pre_split, prepare_split, seed_and_pool, seed_and_pool_filtered, shuffled_applications,
    PreparedSplit, SeedPool, SplitConfig,
};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::data::{FeatureMethod, System, SystemData};
    pub use crate::experiments::{
        run_curves, run_table4, CurvesConfig, DrilldownResult, Table4Config,
    };
    pub use crate::proctor::{run_proctor_session, ProctorConfig};
    pub use crate::scale::RunScale;
    pub use crate::split::{prepare_split, seed_and_pool, SplitConfig};
    pub use alba_active::{run_session, SessionConfig, Strategy};
    pub use alba_ml::{Classifier, ModelFamily, ModelSpec, Scores};
    pub use alba_telemetry::Scale;
}
