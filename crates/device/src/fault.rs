//! Deterministic fault injection: seeded schedules of GPU disturbances.
//!
//! Real Jetson-class boards fail in ways the clean simulator never
//! shows: thermal throttling windows that stretch every GPU op, transient
//! op failures (driver resets, kernel launch timeouts) that produce no
//! output, and stall spikes where one op takes several times its usual
//! latency. A [`FaultPlan`] is a fully deterministic, per-stream schedule
//! of those episodes:
//!
//! - **Throttle windows** are precomputed at plan construction from the
//!   plan seed: periodic-ish episodes during which every GPU op's demand
//!   is multiplied by [`FaultConfig::throttle_factor`].
//! - **Transient failures** and **stall spikes** are decided per GPU op
//!   by a counter-based hash of `(seed, op_index)` — no shared RNG state,
//!   so injecting faults never perturbs the device's latency-noise
//!   stream, and an empty plan leaves every existing result byte-
//!   identical.
//!
//! The executor consults the plan from [`DeviceSim::run_op`]; see the
//! fallback ladder in `litereconfig::pipeline` for how failures are
//! absorbed.
//!
//! [`DeviceSim::run_op`]: crate::DeviceSim::run_op

/// A typed failure of a device op. This is the *first* error type on the
/// simulator's hot path: every layer above (`Mbek`, the scheduler, the
/// pipeline, the serving dispatcher) must either absorb it through a
/// documented fallback or surface it as a typed eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpError {
    /// The op failed transiently (driver reset, launch timeout) and
    /// produced no output. `wasted_ms` of virtual time was already
    /// charged to the clock before the failure was detected.
    Transient {
        /// Virtual milliseconds burned before the failure surfaced.
        wasted_ms: f64,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Transient { wasted_ms } => {
                write!(f, "transient GPU op failure ({wasted_ms:.2} ms wasted)")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// Duration of one thermal-throttle episode, virtual ms.
const THROTTLE_DURATION_MS: f64 = 800.0;

/// What the plan injects into one GPU op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Nothing: the op runs normally (possibly throttled).
    None,
    /// The op completes but its latency is multiplied by the stall
    /// factor (scheduler preemption, memory-pressure hiccup). Absorbed
    /// by the executor; callers only see a slow op.
    Stall,
    /// The op fails transiently and produces no output.
    Transient,
}

/// Parameters of a deterministic fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the schedule. Two plans with the same config are
    /// identical; per-stream plans should derive decorrelated seeds.
    pub seed: u64,
    /// Probability that a GPU op fails transiently.
    pub transient_rate: f64,
    /// Probability that a GPU op stalls (absorbed latency spike).
    pub stall_rate: f64,
    /// Latency multiplier applied on a stall.
    pub stall_factor: f64,
    /// Mean spacing between thermal-throttle episodes, virtual ms (each
    /// episode lasts 800 ms).
    pub throttle_period_ms: f64,
    /// GPU demand multiplier while a throttle episode is active (the
    /// silicon clocks down, so the device genuinely works longer).
    pub throttle_factor: f64,
    /// Horizon up to which throttle windows are generated, virtual ms.
    pub horizon_ms: f64,
}

impl FaultConfig {
    /// A moderate disturbance profile: occasional transient failures and
    /// stalls, with periodic thermal-throttle episodes — roughly what a
    /// passively cooled board under sustained load exhibits.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.02,
            stall_rate: 0.01,
            stall_factor: 4.0,
            throttle_period_ms: 4_000.0,
            throttle_factor: 2.5,
            horizon_ms: 600_000.0,
        }
    }

    /// The same profile with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range field: rates must
    /// be probabilities summing to at most 1, factors at least 1, and the
    /// throttle period and horizon positive.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let prob = |v: f64, name: &str| {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                Err(format!("{name} {v} outside [0, 1]"))
            } else {
                Ok(())
            }
        };
        prob(self.transient_rate, "transient_rate")?;
        prob(self.stall_rate, "stall_rate")?;
        if self.transient_rate + self.stall_rate > 1.0 {
            return Err(format!(
                "transient_rate + stall_rate = {} exceeds 1",
                self.transient_rate + self.stall_rate
            ));
        }
        if !(self.stall_factor >= 1.0 && self.stall_factor.is_finite()) {
            return Err(format!("stall_factor {} below 1", self.stall_factor));
        }
        if !(self.throttle_factor >= 1.0 && self.throttle_factor.is_finite()) {
            return Err(format!("throttle_factor {} below 1", self.throttle_factor));
        }
        for (v, name) in [
            (self.throttle_period_ms, "throttle_period_ms"),
            (self.horizon_ms, "horizon_ms"),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} {v} not positive"));
            }
        }
        Ok(())
    }
}

/// SplitMix64: the counter-to-hash finalizer the schedule draws from.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a seed/counter pair.
fn unit_draw(seed: u64, counter: u64) -> f64 {
    (splitmix64(seed ^ counter.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64
        / (1u64 << 53) as f64
}

/// A seeded, fully deterministic schedule of GPU fault episodes for one
/// stream's device. See the module docs for the fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Precomputed `[start, end)` throttle windows, sorted by start.
    throttle_windows: Vec<(f64, f64)>,
    /// Per-op decision counter (one draw per GPU op).
    op_index: u64,
}

impl FaultPlan {
    /// Builds the schedule from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range configuration, naming the first
    /// out-of-range field.
    pub fn generate(cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("FaultPlan::generate: {e}");
        }
        let mut throttle_windows = Vec::new();
        let mut t = 0.0;
        let mut k = 0u64;
        while t < cfg.horizon_ms {
            // Jittered spacing in [0.5, 1.5) of the period keeps the
            // windows from beating against frame pacing.
            let gap = cfg.throttle_period_ms * (0.5 + unit_draw(cfg.seed ^ 0x7412, k));
            t += gap;
            k += 1;
            if t >= cfg.horizon_ms {
                break;
            }
            throttle_windows.push((t, t + THROTTLE_DURATION_MS));
            t += THROTTLE_DURATION_MS;
        }
        Self {
            cfg,
            throttle_windows,
            op_index: 0,
        }
    }

    /// The plan's configuration.
    pub(crate) fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The demand multiplier in effect at `now_ms`: the throttle factor
    /// inside an episode, 1 otherwise.
    pub(crate) fn throttle_factor_at(&self, now_ms: f64) -> f64 {
        // Windows are sorted and disjoint; a binary search on starts
        // finds the only candidate.
        let i = self
            .throttle_windows
            .partition_point(|&(start, _)| start <= now_ms);
        if i > 0 {
            let (_, end) = self.throttle_windows[i - 1];
            if now_ms < end {
                return self.cfg.throttle_factor;
            }
        }
        1.0
    }

    /// Decides the fault event for the next GPU op, consuming one draw.
    pub(crate) fn next_gpu_event(&mut self) -> FaultEvent {
        let u = unit_draw(self.cfg.seed, self.op_index);
        self.op_index += 1;
        if u < self.cfg.transient_rate {
            FaultEvent::Transient
        } else if u < self.cfg.transient_rate + self.cfg.stall_rate {
            FaultEvent::Stall
        } else {
            FaultEvent::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(FaultConfig::moderate(seed))
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = plan(7);
        let mut b = plan(7);
        assert_eq!(a, b);
        let ea: Vec<_> = (0..500).map(|_| a.next_gpu_event()).collect();
        let eb: Vec<_> = (0..500).map(|_| b.next_gpu_event()).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = plan(1);
        let mut b = plan(2);
        let ea: Vec<_> = (0..500).map(|_| a.next_gpu_event()).collect();
        let eb: Vec<_> = (0..500).map(|_| b.next_gpu_event()).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn event_rates_match_config() {
        let mut p = plan(3);
        let n = 100_000;
        let mut transients = 0;
        let mut stalls = 0;
        for _ in 0..n {
            match p.next_gpu_event() {
                FaultEvent::Transient => transients += 1,
                FaultEvent::Stall => stalls += 1,
                FaultEvent::None => {}
            }
        }
        let t = transients as f64 / n as f64;
        let s = stalls as f64 / n as f64;
        assert!((0.01..0.03).contains(&t), "transient rate {t}");
        assert!((0.005..0.02).contains(&s), "stall rate {s}");
    }

    #[test]
    fn throttle_windows_cover_roughly_their_duty_cycle() {
        let p = plan(4);
        let cfg = p.config();
        assert!(p.throttle_windows.len() > 50);
        // Sample the factor over the horizon; the duty cycle is about
        // duration / (duration + period).
        let samples = 20_000;
        let throttled = (0..samples)
            .filter(|&i| {
                let t = cfg.horizon_ms * i as f64 / samples as f64;
                p.throttle_factor_at(t) > 1.0
            })
            .count();
        let duty = throttled as f64 / samples as f64;
        let expect = THROTTLE_DURATION_MS / (THROTTLE_DURATION_MS + cfg.throttle_period_ms);
        assert!(
            (duty - expect).abs() < 0.08,
            "duty {duty} vs expected {expect}"
        );
    }

    #[test]
    fn throttle_factor_is_one_outside_windows() {
        let p = plan(5);
        assert_eq!(p.throttle_factor_at(0.0), 1.0);
        assert_eq!(p.throttle_factor_at(f64::MAX), 1.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = FaultConfig::moderate(1);
        c.transient_rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::moderate(1);
        c.stall_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::moderate(1);
        c.transient_rate = 0.7;
        c.stall_rate = 0.6;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::moderate(1);
        c.throttle_period_ms = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn op_error_displays_waste() {
        let e = OpError::Transient { wasted_ms: 12.5 };
        assert!(e.to_string().contains("12.50 ms"));
    }
}
