//! Evaluation: mean average precision, latency statistics, and result
//! tables.
//!
//! Accuracy in this workspace is never asserted — it is computed by
//! matching simulated detections against ground truth with the standard
//! VOC protocol (greedy IoU >= 0.5 matching, all-point interpolated AP,
//! mAP over classes with ground truth), the same protocol the paper uses
//! on ImageNet VID. Latency statistics mirror the paper's reporting: mean
//! per-frame latency and the 95th percentile (P95) against which the SLO
//! is checked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latency;
mod map;
mod table;

pub use latency::LatencyStats;
pub use map::{GtBox, MapAccumulator, MapResult, PredBox};
pub use table::TextTable;
