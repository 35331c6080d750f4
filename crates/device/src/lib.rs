//! Virtual-time mobile GPU device model.
//!
//! The paper evaluates on NVIDIA Jetson TX2 and AGX Xavier boards. This
//! crate stands in for that hardware with a discrete virtual-time model:
//! every operation (a detector inference, a tracker update, a feature
//! extraction, a scheduler model query) *charges* a latency to a
//! virtual clock, where the charge is
//!
//! ```text
//! charged_ms = base_tx2_ms * device_factor(unit) * contention_factor(unit) * noise
//! ```
//!
//! - `base_tx2_ms` values are calibrated to the paper's published TX2
//!   numbers (Table 1 for features, Tables 2–3 for kernels).
//! - The device factor scales GPU/CPU ops for the faster Xavier board.
//! - A contention generator reproduces the paper's CG: a
//!   tunable 0–99% GPU contention level that inflates GPU-op latencies
//!   while leaving CPU ops (the trackers) untouched — which is exactly why
//!   contention-aware adaptation pays off.
//! - Noise is multiplicative log-normal-like jitter plus rare heavy-tail
//!   spikes, so P95 latency differs meaningfully from the mean.
//!
//! The crate also models **branch switching costs** (§3.5, Figure 5) and a
//! simple **memory model** used to reproduce the OOM rows of Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod contention;
mod executor;
mod fault;
mod memory;
mod noise;
mod profile;
mod switching;

pub use executor::{DeviceSim, OpUnit};
pub use fault::{FaultConfig, FaultEvent, FaultPlan, OpError};
pub use memory::MemoryModel;
pub use profile::{DeviceKind, DeviceProfile};
pub use switching::{OnlineSwitchSampler, SwitchingCostModel};
