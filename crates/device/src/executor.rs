//! The device simulator: charges op latencies against the virtual clock.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::VirtualClock;
use crate::contention::ContentionGenerator;
use crate::fault::{FaultEvent, FaultPlan, OpError};
use crate::noise::LatencyNoise;
use crate::profile::{DeviceKind, DeviceProfile};

/// Fraction of a GPU op's would-be latency burned before a transient
/// failure is detected.
const FAILURE_WASTE_FRACTION: f64 = 0.5;

/// Which execution unit an op runs on. GPU ops are subject to GPU
/// contention; CPU ops are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpUnit {
    /// Runs on the mobile GPU (detectors, CNN feature extractors, the
    /// accuracy-prediction networks).
    Gpu,
    /// Runs on the CPU complex (trackers, HoC/HOG extraction, light
    /// features, the optimization solve).
    Cpu,
}

/// A simulated device: profile + contention + noise + clock.
///
/// Contention comes from one of two sources:
///
/// - the paper's **static** contention generator (`contention_pct`), an
///   exogenous knob used by the single-stream experiments; or
/// - an **external** slowdown factor supplied by a serving layer (see the
///   `lr-serve` crate), derived endogenously from the measured GPU
///   occupancy of co-scheduled streams. While set, it overrides the
///   static generator for GPU ops.
///
/// The simulator also keeps per-unit **busy accounting**: cumulative GPU
/// *demand* (device cycles requested, excluding any contention stretch)
/// and CPU busy time. The serving layer uses the demand counter to
/// measure occupancy, which closes the contention feedback loop.
///
/// # Examples
///
/// ```
/// use lr_device::{DeviceKind, DeviceSim, OpUnit};
///
/// let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 7);
/// let charged = dev.charge(OpUnit::Gpu, 30.0);
/// assert!(charged > 0.0);
/// assert!((dev.now_ms() - charged).abs() < 1e-9);
/// assert!((dev.gpu_demand_ms() - charged).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceSim {
    profile: DeviceProfile,
    contention: ContentionGenerator,
    /// Endogenous GPU slowdown factor supplied by a serving layer;
    /// overrides the static generator while set.
    external_gpu_slowdown: Option<f64>,
    noise: LatencyNoise,
    clock: VirtualClock,
    rng: StdRng,
    gpu_demand_ms: f64,
    /// Deterministic fault schedule consulted by [`DeviceSim::run_op`].
    /// `None` (the default) means no faults: `run_op` degenerates to
    /// [`DeviceSim::charge`] with byte-identical results — the plan
    /// draws from its own counter hash, never from `rng`, so attaching
    /// or removing it cannot perturb the latency-noise stream.
    fault_plan: Option<FaultPlan>,
}

impl DeviceSim {
    /// Creates a device simulator.
    ///
    /// # Panics
    ///
    /// Panics if `contention_pct` is outside `[0, 99]` or not finite.
    pub fn new(kind: DeviceKind, contention_pct: f64, seed: u64) -> Self {
        let contention = ContentionGenerator::try_new(contention_pct).unwrap_or_else(|pct| {
            panic!("DeviceSim::new: contention level {pct}% outside [0, 99]")
        });
        Self {
            profile: kind.profile(),
            contention,
            external_gpu_slowdown: None,
            noise: LatencyNoise::default(),
            clock: VirtualClock::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x0D3B_1CE5),
            gpu_demand_ms: 0.0,
            fault_plan: None,
        }
    }

    /// Installs a deterministic fault schedule, replacing any earlier
    /// one; [`DeviceSim::run_op`] consults it for every GPU op.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Supplies an endogenous GPU slowdown factor (≥ 1) measured by a
    /// serving layer from co-scheduled streams' GPU occupancy. While set
    /// it replaces the static contention generator for GPU ops.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or below 1.
    pub fn set_external_gpu_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "external GPU slowdown {factor} must be finite and >= 1"
        );
        self.external_gpu_slowdown = Some(factor);
    }

    /// The currently supplied external GPU slowdown factor, if any.
    pub fn external_gpu_slowdown(&self) -> Option<f64> {
        self.external_gpu_slowdown
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    /// Advances the clock to `ms` without charging any work — the
    /// device sitting idle (e.g. a paced stream waiting for its next
    /// frame to arrive). A time already in the past is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is non-finite.
    pub fn idle_until(&mut self, ms: f64) {
        assert!(ms.is_finite(), "invalid idle target: {ms}");
        let gap = ms - self.clock.now_ms();
        if gap > 0.0 {
            self.clock.advance(gap);
        }
    }

    /// Cumulative GPU cycles demanded, in milliseconds of device time
    /// *excluding* contention stretch: how long the GPU itself worked for
    /// this simulator, regardless of how long the op took wall-clock
    /// under time-sharing. Includes noise (real kernels jitter).
    pub fn gpu_demand_ms(&self) -> f64 {
        self.gpu_demand_ms
    }

    /// The instantaneous GPU contention factor for one op.
    fn sample_contention(&mut self) -> f64 {
        match self.external_gpu_slowdown {
            // Endogenous signal: jitter around the supplied factor the
            // same way the CG's bursts jitter around its mean.
            Some(f) => 1.0 + (f - 1.0) * self.rng.gen_range(0.7..1.3),
            None => self.contention.sample_gpu_slowdown(&mut self.rng),
        }
    }

    /// Charges an op with the given TX2-calibrated base latency; advances
    /// the clock and returns the actual charged milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `base_tx2_ms` is negative or non-finite.
    pub fn charge(&mut self, unit: OpUnit, base_tx2_ms: f64) -> f64 {
        self.charge_inner(unit, base_tx2_ms, 1.0, 1.0)
    }

    /// The shared charging path: samples contention and noise (in that
    /// order, so `run_op` with an idle fault plan consumes exactly the
    /// RNG draws `charge` does), stretches *demand* by `demand_factor`
    /// (throttle/stall episodes: the silicon genuinely works longer) and
    /// truncates the charge to `completed` of the op (a transiently
    /// failed op burns only its waste fraction).
    fn charge_inner(
        &mut self,
        unit: OpUnit,
        base_tx2_ms: f64,
        demand_factor: f64,
        completed: f64,
    ) -> f64 {
        assert!(
            base_tx2_ms.is_finite() && base_tx2_ms >= 0.0,
            "invalid base latency: {base_tx2_ms}"
        );
        let device_factor = match unit {
            OpUnit::Gpu => self.profile.gpu_speed_factor,
            OpUnit::Cpu => self.profile.cpu_speed_factor,
        };
        let contention_factor = match unit {
            OpUnit::Gpu => self.sample_contention(),
            OpUnit::Cpu => 1.0,
        };
        let noise = self.noise.sample(&mut self.rng);
        let demand = base_tx2_ms * device_factor * noise * demand_factor * completed;
        let ms = demand * contention_factor;
        if unit == OpUnit::Gpu {
            self.gpu_demand_ms += demand;
        }
        self.clock.advance(ms);
        ms
    }

    /// Runs an op under the installed fault schedule: charges like
    /// [`DeviceSim::charge`] and returns the charged milliseconds, or a
    /// typed [`OpError`] when the plan injects a transient failure (the
    /// wasted time is already on the clock). Without a plan — and for
    /// CPU ops, which the GPU-side fault model never touches — this is
    /// exactly `charge`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `base_tx2_ms` is negative or non-finite.
    pub fn run_op(&mut self, unit: OpUnit, base_tx2_ms: f64) -> Result<f64, OpError> {
        let Some(plan) = &mut self.fault_plan else {
            return Ok(self.charge(unit, base_tx2_ms));
        };
        if unit == OpUnit::Cpu {
            return Ok(self.charge(unit, base_tx2_ms));
        }
        let throttle = plan.throttle_factor_at(self.clock.now_ms());
        let event = plan.next_gpu_event();
        let cfg = *plan.config();
        match event {
            FaultEvent::None => Ok(self.charge_inner(unit, base_tx2_ms, throttle, 1.0)),
            FaultEvent::Stall => {
                Ok(self.charge_inner(unit, base_tx2_ms, throttle * cfg.stall_factor, 1.0))
            }
            FaultEvent::Transient => {
                let wasted_ms =
                    self.charge_inner(unit, base_tx2_ms, throttle, FAILURE_WASTE_FRACTION);
                Err(OpError::Transient { wasted_ms })
            }
        }
    }

    /// Advances the clock by exactly `ms` (no device, contention, or
    /// noise factors). Used for costs that are already fully sampled
    /// (switching outliers) or that do not scale with the silicon
    /// (interpreter overhead of a legacy pipeline). Not attributed to
    /// either unit's busy accounting.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or non-finite.
    pub fn charge_fixed(&mut self, ms: f64) -> f64 {
        self.clock.advance(ms);
        ms
    }

    /// Like [`DeviceSim::charge_fixed`] but attributes the time to a
    /// unit's busy accounting (a branch switch occupies the GPU while the
    /// new model loads and warms up).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or non-finite.
    pub fn charge_fixed_on(&mut self, unit: OpUnit, ms: f64) -> f64 {
        if unit == OpUnit::Gpu {
            self.gpu_demand_ms += ms;
        }
        self.clock.advance(ms);
        ms
    }

    /// Access to the device RNG for co-located stochastic processes
    /// (detection noise shares the device's randomness stream so whole
    /// experiment runs stay reproducible from one seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device without latency noise.
    fn noiseless(kind: DeviceKind, contention_pct: f64, seed: u64) -> DeviceSim {
        DeviceSim {
            noise: crate::noise::tests::NO_NOISE,
            ..DeviceSim::new(kind, contention_pct, seed)
        }
    }

    /// The latency an op's charges average to at the device's current
    /// mean contention.
    fn expected_ms(dev: &DeviceSim, unit: OpUnit, base_tx2_ms: f64) -> f64 {
        let mean_contention = dev
            .external_gpu_slowdown
            .unwrap_or_else(|| dev.contention.mean_gpu_slowdown());
        match unit {
            OpUnit::Gpu => base_tx2_ms * dev.profile.gpu_speed_factor * mean_contention,
            OpUnit::Cpu => base_tx2_ms * dev.profile.cpu_speed_factor,
        }
    }

    #[test]
    fn charge_advances_clock_by_return_value() {
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
        let a = dev.charge(OpUnit::Gpu, 10.0);
        let b = dev.charge(OpUnit::Cpu, 5.0);
        assert!((dev.now_ms() - (a + b)).abs() < 1e-9);
    }

    #[test]
    fn idle_until_advances_without_charging() {
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
        dev.idle_until(125.0);
        assert!((dev.now_ms() - 125.0).abs() < 1e-9);
        assert_eq!(dev.gpu_demand_ms(), 0.0);
        // Idling to the past never rewinds the clock.
        dev.idle_until(50.0);
        assert!((dev.now_ms() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn noiseless_tx2_charge_equals_base() {
        let mut dev = noiseless(DeviceKind::JetsonTx2, 0.0, 1);
        assert_eq!(dev.charge(OpUnit::Gpu, 25.0), 25.0);
        assert_eq!(dev.charge(OpUnit::Cpu, 25.0), 25.0);
    }

    #[test]
    fn xavier_is_faster_than_tx2() {
        let mut tx2 = noiseless(DeviceKind::JetsonTx2, 0.0, 1);
        let mut xv = noiseless(DeviceKind::AgxXavier, 0.0, 1);
        assert!(xv.charge(OpUnit::Gpu, 30.0) < tx2.charge(OpUnit::Gpu, 30.0));
    }

    #[test]
    fn contention_slows_gpu_but_not_cpu() {
        let mut dev = noiseless(DeviceKind::JetsonTx2, 50.0, 2);
        let n = 2000;
        let gpu_mean: f64 = (0..n).map(|_| dev.charge(OpUnit::Gpu, 10.0)).sum::<f64>() / n as f64;
        let cpu_mean: f64 = (0..n).map(|_| dev.charge(OpUnit::Cpu, 10.0)).sum::<f64>() / n as f64;
        assert!(gpu_mean > 15.0, "gpu mean {gpu_mean} not slowed");
        assert!((cpu_mean - 10.0).abs() < 1e-9, "cpu affected by contention");
    }

    #[test]
    fn expected_ms_reflects_mean_contention() {
        let dev = DeviceSim::new(DeviceKind::JetsonTx2, 50.0, 3);
        assert!((expected_ms(&dev, OpUnit::Gpu, 10.0) - 20.0).abs() < 1e-9);
        assert!((expected_ms(&dev, OpUnit::Cpu, 10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_charges() {
        let run = || {
            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 30.0, 9);
            (0..50)
                .map(|_| dev.charge(OpUnit::Gpu, 12.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "outside [0, 99]")]
    fn new_panics_with_clear_message() {
        let _ = DeviceSim::new(DeviceKind::JetsonTx2, 250.0, 1);
    }

    #[test]
    fn external_slowdown_overrides_static_contention() {
        let mut dev = noiseless(DeviceKind::JetsonTx2, 0.0, 5);
        dev.set_external_gpu_slowdown(3.0);
        let n = 2000;
        let mean: f64 = (0..n).map(|_| dev.charge(OpUnit::Gpu, 10.0)).sum::<f64>() / n as f64;
        assert!(
            (25.0..35.0).contains(&mean),
            "mean {mean} far from 3x slowdown"
        );
        // CPU unaffected.
        assert_eq!(dev.charge(OpUnit::Cpu, 10.0), 10.0);
        // Expected-latency queries see the external factor too.
        assert!((expected_ms(&dev, OpUnit::Gpu, 10.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn run_op_without_plan_is_charge_bit_for_bit() {
        let mut a = DeviceSim::new(DeviceKind::JetsonTx2, 30.0, 11);
        let mut b = DeviceSim::new(DeviceKind::JetsonTx2, 30.0, 11);
        for i in 0..200 {
            let unit = if i % 3 == 0 { OpUnit::Cpu } else { OpUnit::Gpu };
            let x = a.charge(unit, 12.0);
            let y = b.run_op(unit, 12.0).expect("no plan, no faults");
            assert_eq!(x.to_bits(), y.to_bits(), "op {i}");
        }
        assert_eq!(a.now_ms().to_bits(), b.now_ms().to_bits());
    }

    #[test]
    fn idle_fault_plan_leaves_charges_bit_identical() {
        // A plan with zero rates and a throttle horizon of one window far
        // in the future must not perturb the noise stream.
        let mut cfg = crate::fault::FaultConfig::moderate(9);
        cfg.transient_rate = 0.0;
        cfg.stall_rate = 0.0;
        cfg.throttle_period_ms = 1e12;
        cfg.horizon_ms = 1e12;
        let mut a = DeviceSim::new(DeviceKind::JetsonTx2, 30.0, 12);
        let mut b = DeviceSim::new(DeviceKind::JetsonTx2, 30.0, 12);
        b.set_fault_plan(crate::fault::FaultPlan::generate(cfg));
        for _ in 0..200 {
            let x = a.charge(OpUnit::Gpu, 12.0);
            let y = b.run_op(OpUnit::Gpu, 12.0).expect("rates are zero");
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn certain_transient_rate_fails_every_gpu_op() {
        let mut cfg = crate::fault::FaultConfig::moderate(5);
        cfg.transient_rate = 1.0;
        cfg.stall_rate = 0.0;
        let mut dev = noiseless(DeviceKind::JetsonTx2, 0.0, 13);
        dev.set_fault_plan(crate::fault::FaultPlan::generate(cfg));
        for _ in 0..10 {
            let err = dev.run_op(OpUnit::Gpu, 10.0).unwrap_err();
            let crate::fault::OpError::Transient { wasted_ms } = err;
            // Half the op's latency is burned (waste fraction 0.5),
            // possibly throttled.
            assert!(wasted_ms >= 5.0 - 1e-9, "wasted {wasted_ms}");
        }
        // CPU ops never fault.
        assert!(dev.run_op(OpUnit::Cpu, 10.0).is_ok());
    }

    #[test]
    fn throttle_window_stretches_gpu_ops() {
        let mut cfg = crate::fault::FaultConfig::moderate(6);
        cfg.transient_rate = 0.0;
        cfg.stall_rate = 0.0;
        cfg.throttle_factor = 3.0;
        let plan = crate::fault::FaultPlan::generate(cfg);
        // Find the first throttle window by probing the factor.
        let start = (0..4_000_000)
            .map(|i| i as f64 * 0.25)
            .find(|&t| plan.throttle_factor_at(t) > 1.0)
            .expect("a window exists");
        let mut dev = noiseless(DeviceKind::JetsonTx2, 0.0, 14);
        dev.set_fault_plan(plan);
        let clean = dev.run_op(OpUnit::Gpu, 10.0).expect("zero rates");
        assert_eq!(clean, 10.0);
        dev.idle_until(start + 1.0);
        let throttled = dev.run_op(OpUnit::Gpu, 10.0).expect("zero rates");
        assert_eq!(throttled, 30.0, "3x throttle inside the window");
    }

    #[test]
    fn faulted_device_is_deterministic() {
        let run = || {
            let cfg = crate::fault::FaultConfig::moderate(21);
            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 20.0, 15);
            dev.set_fault_plan(crate::fault::FaultPlan::generate(cfg));
            let mut out = Vec::new();
            for _ in 0..300 {
                out.push(dev.run_op(OpUnit::Gpu, 8.0).map_err(|e| format!("{e}")));
            }
            (out, dev.now_ms().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn demand_accounting_excludes_contention_stretch() {
        let mut dev = noiseless(DeviceKind::JetsonTx2, 0.0, 6);
        dev.set_external_gpu_slowdown(4.0);
        let charged = dev.charge(OpUnit::Gpu, 10.0);
        assert!(charged > 20.0, "contention must stretch the charge");
        // ...but the demand is the un-stretched 10 ms of GPU cycles.
        assert!((dev.gpu_demand_ms() - 10.0).abs() < 1e-9);
        dev.charge(OpUnit::Cpu, 7.0);
        dev.charge_fixed_on(OpUnit::Gpu, 2.5);
        assert!((dev.gpu_demand_ms() - 12.5).abs() < 1e-9);
        // Unattributed fixed charges advance the clock only.
        let demand_before = dev.gpu_demand_ms();
        dev.charge_fixed(5.0);
        assert_eq!(dev.gpu_demand_ms(), demand_before);
    }
}
