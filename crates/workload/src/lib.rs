//! `lg-workload` — datacenter workloads for the LinkGuardian evaluation.
//!
//! * [`dists`]: the six Figure-2 flow-size distributions plus the fixed
//!   sizes the paper's FCT experiments use (143 B, 24,387 B, 2 MB);
//! * [`fct`]: flow-completion-time collection with the paper's
//!   percentile report format.

pub mod dists;
pub mod fct;

pub use dists::FlowSizeDist;
pub use fct::{FctCollector, FctReport};
