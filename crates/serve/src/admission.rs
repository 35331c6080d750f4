//! SLO-aware admission control.
//!
//! Before a stream is scheduled it must be admitted: the controller
//! estimates the GPU demand fraction the stream will put on the shared
//! device and only admits it while the aggregate stays under capacity.
//! Degradable classes are offered a fallback: admission in a degraded
//! operating mode (tightened scheduler headroom → cheaper tracker
//! branches and longer GoFs), booked at their floor demand.

use litereconfig::TrainedScheduler;
use lr_device::DeviceProfile;

use crate::slo::SloClass;

/// The controller's verdict for one offered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted at full quality.
    Admitted,
    /// Admitted, but in the degraded operating mode.
    Degraded,
    /// Rejected: admitting it would overload the device for everyone.
    Rejected,
}

/// Floor and typical demand of one SLO-feasible branch set.
#[derive(Debug, Clone, Copy)]
struct DemandFractions {
    /// The per-frame GPU milliseconds of the cheapest branch whose GPU
    /// work alone fits the SLO, over the SLO (the stream's frame
    /// budget).
    ///
    /// This is a capacity *estimate*: trackers run on the CPU and the
    /// scheduler adapts online, so the GPU-only per-branch cost is the
    /// right currency for GPU admission.
    floor: f64,
    /// The mean per-frame GPU cost of the set, over the SLO. An adaptive
    /// stream wanders across exactly that set as contention varies —
    /// heavy branches when the device is quiet, cheap ones under load —
    /// so the set's mean is the controller's prior for what an admitted
    /// stream will actually consume.
    typical: f64,
}

/// SLO-aware admission controller for one shared device.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    capacity_fraction: f64,
    committed: f64,
}

impl AdmissionController {
    /// Creates a controller that keeps the sum of booked GPU demand
    /// fractions at or below `capacity_fraction` (of one GPU).
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_fraction` is in `(0, 1]`.
    pub(crate) fn new(capacity_fraction: f64) -> Self {
        assert!(
            capacity_fraction > 0.0 && capacity_fraction <= 1.0,
            "capacity fraction {capacity_fraction} outside (0, 1]"
        );
        Self {
            capacity_fraction,
            committed: 0.0,
        }
    }

    /// Floor and typical demand of the SLO-feasible branch set, computed
    /// in one pass. `None` iff the feasible set is empty, so callers get
    /// both-or-neither by construction; such a stream cannot be served
    /// on this device at all.
    fn demand_fractions(
        trained: &TrainedScheduler,
        profile: &DeviceProfile,
        slo_ms: f64,
    ) -> Option<DemandFractions> {
        assert!(slo_ms > 0.0 && slo_ms.is_finite(), "bad SLO {slo_ms}");
        let mut min = f64::INFINITY;
        let mut sum = 0.0;
        let mut n = 0usize;
        for (b, det_ms) in trained.catalog.iter().zip(&trained.det_inference_ms) {
            let gpu_per_frame = det_ms * profile.gpu_speed_factor / b.gof_size.max(1) as f64;
            if gpu_per_frame <= slo_ms {
                min = min.min(gpu_per_frame);
                sum += gpu_per_frame;
                n += 1;
            }
        }
        (n > 0).then(|| DemandFractions {
            floor: min / slo_ms,
            typical: sum / n as f64 / slo_ms,
        })
    }

    /// The fraction [`AdmissionController::offer`] books for a stream of
    /// `class` under the given decision (0 for rejections). Lets the
    /// dispatcher release exactly what was booked when it later evicts
    /// the stream for exceeding its fault budget.
    pub(crate) fn booked_fraction(
        trained: &TrainedScheduler,
        profile: &DeviceProfile,
        class: SloClass,
        decision: AdmissionDecision,
    ) -> f64 {
        let Some(demand) = Self::demand_fractions(trained, profile, class.slo_ms()) else {
            return 0.0;
        };
        match decision {
            AdmissionDecision::Admitted => demand.typical.min(1.0),
            AdmissionDecision::Degraded => demand.floor,
            AdmissionDecision::Rejected => 0.0,
        }
    }

    /// Releases previously booked capacity (an evicted stream's share),
    /// making room for later re-admission offers.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or non-finite.
    pub(crate) fn release(&mut self, fraction: f64) {
        assert!(
            fraction >= 0.0 && fraction.is_finite(),
            "bad fraction {fraction}"
        );
        self.committed = (self.committed - fraction).max(0.0);
    }

    /// Offers a stream of the given class. Books capacity and returns
    /// the decision; rejected streams book nothing.
    pub(crate) fn offer(
        &mut self,
        trained: &TrainedScheduler,
        profile: &DeviceProfile,
        class: SloClass,
    ) -> AdmissionDecision {
        let Some(demand) = Self::demand_fractions(trained, profile, class.slo_ms()) else {
            return AdmissionDecision::Rejected;
        };
        let floor = demand.floor;
        let typical = demand.typical.min(1.0);
        if self.committed + typical <= self.capacity_fraction {
            self.committed += typical;
            AdmissionDecision::Admitted
        } else if class.degradable() && self.committed + floor <= self.capacity_fraction {
            self.committed += floor;
            AdmissionDecision::Degraded
        } else {
            AdmissionDecision::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litereconfig::offline::{profile_videos, OfflineConfig};
    use litereconfig::FeatureService;
    use litereconfig::{train_scheduler, TrainConfig};
    use lr_device::DeviceKind;
    use lr_kernels::branch::small_catalog;
    use lr_kernels::DetectorFamily;
    use lr_video::{Video, VideoSpec};

    impl AdmissionController {
        /// GPU demand fraction currently booked.
        pub(crate) fn committed(&self) -> f64 {
            self.committed
        }
    }

    fn trained() -> TrainedScheduler {
        let videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: 800 + i,
                    seed: 4_800 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 60,
                })
            })
            .collect();
        let cfg = OfflineConfig {
            snippet_len: 30,
            catalog: small_catalog(),
            family: DetectorFamily::FasterRcnn,
            seed: 21,
        };
        let ds = profile_videos(&videos, &cfg, &FeatureService::new());
        train_scheduler(&ds, DetectorFamily::FasterRcnn, &TrainConfig::tiny())
    }

    /// The floor demand the controller books for a degraded stream.
    fn floor_demand_fraction(t: &TrainedScheduler, profile: &DeviceProfile, slo: f64) -> f64 {
        AdmissionController::demand_fractions(t, profile, slo)
            .unwrap()
            .floor
    }

    /// The typical demand the controller books for an admitted stream.
    fn typical_demand_fraction(t: &TrainedScheduler, profile: &DeviceProfile, slo: f64) -> f64 {
        AdmissionController::demand_fractions(t, profile, slo)
            .unwrap()
            .typical
    }

    #[test]
    fn floor_demand_decreases_with_looser_slo() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        let tight = floor_demand_fraction(&t, &profile, 33.3);
        let loose = floor_demand_fraction(&t, &profile, 100.0);
        assert!(tight > loose, "tight {tight} <= loose {loose}");
        assert!(loose > 0.0);
    }

    #[test]
    fn xavier_demands_less_than_tx2() {
        let t = trained();
        let tx2 = floor_demand_fraction(&t, &DeviceKind::JetsonTx2.profile(), 50.0);
        let xavier = floor_demand_fraction(&t, &DeviceKind::AgxXavier.profile(), 50.0);
        assert!(xavier < tx2);
    }

    #[test]
    fn controller_fills_then_rejects_within_capacity() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        let mut ctl = AdmissionController::new(0.85);
        let mut admitted = 0;
        let mut rejected = 0;
        for _ in 0..64 {
            match ctl.offer(&t, &profile, SloClass::Bronze) {
                AdmissionDecision::Admitted => admitted += 1,
                AdmissionDecision::Degraded => {}
                AdmissionDecision::Rejected => rejected += 1,
            }
        }
        assert!(admitted > 0, "no stream admitted");
        assert!(rejected > 0, "capacity never exhausted in 64 offers");
        assert!(
            ctl.committed() <= 0.85 + 1e-9,
            "overbooked: {}",
            ctl.committed()
        );
    }

    #[test]
    fn typical_demand_is_at_least_the_floor() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        for slo in [33.3, 50.0, 100.0] {
            let floor = floor_demand_fraction(&t, &profile, slo);
            let typical = typical_demand_fraction(&t, &profile, slo);
            assert!(
                typical >= floor,
                "typical {typical} < floor {floor} @ {slo}"
            );
        }
    }

    #[test]
    fn degradable_stream_is_degraded_when_only_its_floor_fits() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        let slo = SloClass::Bronze.slo_ms();
        let floor = floor_demand_fraction(&t, &profile, slo);
        let typical = typical_demand_fraction(&t, &profile, slo);
        // Capacity for one full booking plus a bit more than one floor:
        // the second offer cannot be admitted, but its floor still fits.
        let mut ctl = AdmissionController::new((typical + floor * 1.2).min(1.0));
        assert_eq!(
            ctl.offer(&t, &profile, SloClass::Bronze),
            AdmissionDecision::Admitted
        );
        assert_eq!(
            ctl.offer(&t, &profile, SloClass::Bronze),
            AdmissionDecision::Degraded
        );
        assert_eq!(
            ctl.offer(&t, &profile, SloClass::Bronze),
            AdmissionDecision::Rejected
        );
    }

    #[test]
    fn release_frees_exactly_what_offer_booked() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        let mut ctl = AdmissionController::new(0.85);
        let d = ctl.offer(&t, &profile, SloClass::Bronze);
        assert_eq!(d, AdmissionDecision::Admitted);
        let booked = AdmissionController::booked_fraction(&t, &profile, SloClass::Bronze, d);
        assert!(booked > 0.0);
        assert!((ctl.committed() - booked).abs() < 1e-12);
        ctl.release(booked);
        assert!(ctl.committed().abs() < 1e-12);
        // Release never goes negative, even when over-released.
        ctl.release(1.0);
        assert_eq!(ctl.committed(), 0.0);
    }

    #[test]
    fn rejected_streams_book_nothing() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        assert_eq!(
            AdmissionController::booked_fraction(
                &t,
                &profile,
                SloClass::Bronze,
                AdmissionDecision::Rejected
            ),
            0.0
        );
    }

    #[test]
    fn gold_is_never_degraded() {
        let t = trained();
        let profile = DeviceKind::JetsonTx2.profile();
        let mut ctl = AdmissionController::new(0.85);
        for _ in 0..64 {
            let d = ctl.offer(&t, &profile, SloClass::Gold);
            assert_ne!(d, AdmissionDecision::Degraded);
        }
    }
}
