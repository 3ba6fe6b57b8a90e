//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§7) on synthetic stand-ins of the six road networks.
//!
//! Run via:
//!
//! ```text
//! cargo run --release -p privpath-bench --bin experiments -- <id> [--scale F] [--queries N]
//! ```
//!
//! where `<id>` is one of `table1 table2 fig5 table3 fig6 fig7 fig8 fig9
//! fig10 fig11 fig12` or `all`. Results print as aligned text tables (with
//! the paper's reference values where applicable) and are also written as
//! CSV under `results/`.

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scales;

pub use report::Table;
pub use runner::{run_workload, workload_pairs, WorkloadResult};
