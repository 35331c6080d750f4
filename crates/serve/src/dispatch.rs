//! The round-based dispatcher: steps admitted streams GoF-by-GoF in
//! virtual time, coupling them through the shared device.
//!
//! Each stream runs on its own [`DeviceSim`] (private clock and noise
//! stream), but before every GoF the dispatcher measures the GPU
//! occupancy the *other* streams put on the [`SharedDevice`] and
//! injects the implied processor-sharing slowdown into the stream's
//! device and scheduler. Contention is therefore endogenous: adding a
//! stream slows every other stream down, and each stream's scheduler
//! reacts by reconfiguring to cheaper branches — the paper's adaptation
//! loop, driven by real load instead of a configured knob.

use std::sync::Arc;

use litereconfig::{FeatureService, Policy, RunConfig, StreamPipeline, TrainedScheduler};
use lr_device::{DeviceKind, DeviceSim};
use lr_obs::{ObsBundle, ObsMode, RoundRecord, StreamObs, TraceEvent};
use lr_video::Video;

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::report::{ServeReport, StreamReport};
use crate::shared::SharedDevice;
use crate::slo::StreamSpec;

/// GPU demand fraction the admission controller may book (of one GPU).
const CAPACITY_FRACTION: f64 = 0.85;
/// Occupancy-measurement window in virtual milliseconds.
const WINDOW_MS: f64 = 1_000.0;
/// Cap on measured occupancy, keeping slowdowns finite.
const MAX_OCCUPANCY: f64 = 0.98;
/// Priority aging: each priority level is worth this many milliseconds
/// of virtual-time head start when picking the next stream to step.
const AGING_BOOST_MS: f64 = 40.0;
/// Width of one dispatch round in aged virtual milliseconds (see
/// [`serve_traced`]).
const ROUND_QUANTUM_MS: f64 = 50.0;
/// Scheduler headroom imposed on degraded streams (cheaper tracker
/// branches, longer GoFs).
const DEGRADED_HEADROOM: f64 = 0.6;
/// Consecutive SLO-violating GoFs before backpressure degrades a
/// degradable stream mid-run.
const BACKPRESSURE_GOFS: usize = 8;
/// Sliding window (in GoFs) over which a stream's fault rate is measured
/// for eviction.
const FAULT_WINDOW_GOFS: usize = 3;
/// Fraction of the window's GoFs that must have faulted to evict the
/// stream.
const FAULT_RATE_THRESHOLD: f64 = 0.5;
/// Initial re-admission backoff after a fault eviction, in virtual
/// milliseconds; it doubles per eviction up to [`FAULT_BACKOFF_MAX_MS`].
const FAULT_BACKOFF_MS: f64 = 250.0;
/// Cap on the exponential re-admission backoff.
const FAULT_BACKOFF_MAX_MS: f64 = 8_000.0;

/// Configuration of one serving run.
///
/// The dispatcher's policy constants are fixed: 85% bookable GPU
/// capacity, a 1 s occupancy window capped at 98%, a 40 ms aging boost
/// per priority level, 50 ms dispatch rounds, headroom 0.6 for degraded
/// streams, backpressure after 8 violating GoFs, and fault eviction once
/// at least half of a stream's last 3 GoFs faulted, with re-admission
/// backoff doubling from 250 ms up to 8 s.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Board to simulate.
    pub device: DeviceKind,
    /// Whether the admission controller gates streams. With it off,
    /// every offered stream is admitted at full quality (the overload
    /// baseline).
    pub admission_enabled: bool,
    /// Whether each stream's scheduler adapts its latency model to the
    /// observed contention (the full LiteReconfig behavior). Disable to
    /// freeze branch choices, e.g. to measure raw slowdown.
    pub contention_adaptive: bool,
    /// Run seed; per-stream seeds are derived from it and the stream's
    /// first video seed (position-independent, so a stream's private
    /// noise is identical whether it runs alone or co-scheduled).
    pub seed: u64,
    /// Worker threads for stepping a round's streams: `0` resolves from
    /// the `LR_POOL_THREADS` environment variable (defaulting to the
    /// host's available parallelism). Results are bit-identical for any
    /// value.
    pub pool_threads: usize,
    /// Fault-injection schedule template: each stream gets a private
    /// `FaultPlan` whose seed is derived from this config's seed and the
    /// stream's first video seed. `None` (the default) serves clean and
    /// is byte-identical to the pre-fault dispatcher.
    pub fault: Option<lr_device::FaultConfig>,
    /// Observability mode for the run: under `Trace` per-stream sinks
    /// collect spans, decision records, and dispatch rounds. `Off` (the
    /// default) is byte-identical to the unobserved dispatcher; `Trace`
    /// never perturbs the run either — observation only reads the
    /// virtual clock.
    pub obs: ObsMode,
}

impl ServeConfig {
    /// Admission on, contention-adaptive, seed 0, pool size from the
    /// environment, no faults, no observation.
    pub fn new(device: DeviceKind) -> Self {
        Self {
            device,
            admission_enabled: true,
            contention_adaptive: true,
            seed: 0,
            pool_threads: 0,
            fault: None,
            obs: ObsMode::Off,
        }
    }

    /// The same configuration with admission control disabled.
    pub fn without_admission(mut self) -> Self {
        self.admission_enabled = false;
        self
    }
}

/// One admitted stream's live state.
struct ActiveStream {
    /// Index into the offered specs (and the report).
    spec_idx: usize,
    slot: usize,
    device: DeviceSim,
    /// Stream-private feature service so a round's streams can step
    /// concurrently. Rasterization is a pure function of `(video,
    /// frame)`, so private caches change only recompute counts, never
    /// values.
    svc: FeatureService,
    pipeline: StreamPipeline,
    priority: u8,
    /// Frame-arrival period: frame `t` exists only from `t · period`.
    period_ms: f64,
    degradable: bool,
    degraded: bool,
    degraded_midrun: bool,
    slowdown_sum: f64,
    gofs: usize,
    consecutive_violations: usize,
    /// `(wall_span_ms, gpu_demand_ms)` of the last completed GoF; used
    /// to reserve the stream's expected demand on the shared device
    /// before the next round it joins, so co-members see it.
    last_gof: Option<(f64, f64)>,
    /// Sliding window over recent GoFs: `true` = that GoF absorbed at
    /// least one fault.
    fault_window: std::collections::VecDeque<bool>,
    /// When set, the stream is evicted and may not step before this
    /// virtual time, at which point it is re-offered to admission.
    backed_off_until: Option<f64>,
    /// Virtual time of the last fault eviction.
    evicted_at_ms: f64,
    /// Next backoff duration (doubles per eviction, capped).
    backoff_ms: f64,
    evictions: usize,
    recovery_ms_total: f64,
    /// The final re-admission offer was rejected: permanently evicted.
    terminal_evicted: bool,
    /// Capacity fraction currently booked with the admission controller
    /// (released on eviction, re-booked on re-admission).
    booked_fraction: f64,
    /// Stream-private observer: buffers spans and decision records with
    /// no cross-stream synchronization; drained into the run's
    /// [`ObsBundle`] serially, in spec order, after the run.
    obs: StreamObs,
}

impl ActiveStream {
    /// Earliest virtual time the next GoF may start: the head frame's
    /// arrival, or now if the stream has fallen behind its camera —
    /// further delayed by any active eviction backoff.
    fn ready_ms(&self) -> f64 {
        let arrival = self.pipeline.frames_done() as f64 * self.period_ms;
        let base = arrival.max(self.device.now_ms());
        match self.backed_off_until {
            Some(until) => base.max(until),
            None => base,
        }
    }

    /// True while the stream still has frames to serve and has not been
    /// permanently evicted.
    fn runnable(&self) -> bool {
        !self.terminal_evicted && !self.pipeline.finished()
    }

    /// Dispatch key: ready time aged by priority, so higher classes
    /// sort ahead at similar readiness.
    fn aged_key(&self) -> f64 {
        self.ready_ms() - self.priority as f64 * AGING_BOOST_MS
    }
}

fn stream_seed(base: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer: decorrelates per-stream noise streams.
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serves the offered streams to completion and reports the outcome.
///
/// Streams are offered to the admission controller in order (when
/// enabled); admitted ones are stepped GoF-by-GoF in *rounds*: every
/// unfinished stream whose aged virtual clock (`local_time −
/// priority·boost`) is within one 50 ms round quantum of the
/// furthest-behind stream steps one GoF, so local clocks stay nearly
/// synchronized and higher classes run first at ties. All of a round's
/// members observe the slowdown measured from the *pre-round* occupancy
/// snapshot — recorded history plus every member's reserved expected
/// demand (its previous GoF's footprint), so co-members of the same
/// round are not mutually invisible — and step concurrently on the
/// worker pool (each stream owns its device, scheduler RNG, and feature
/// cache); their GPU demand is then recorded back and backpressure
/// applied serially in stream order. Round membership, the snapshot,
/// and the post-pass are all computed serially, so reports are
/// bit-identical for any [`ServeConfig::pool_threads`] value.
///
/// `svc` is used as a template (raster size) for the per-stream feature
/// services; its cache is neither read nor written here.
///
/// Alongside the report, returns the run's [`ObsBundle`]: under
/// [`ObsMode::Trace`], the ordered event stream — spans, scheduler
/// decision records, and dispatch-round records.
/// Callers that only want the report take `.0`.
///
/// Events are buffered per stream during the run (no cross-worker
/// synchronization) and drained serially in spec order afterwards, so
/// the bundle — like the report — is bit-identical for any
/// [`ServeConfig::pool_threads`] value. With [`ServeConfig::obs`] set
/// to [`ObsMode::Off`] the bundle is empty and the run is byte-for-byte
/// the unobserved dispatcher.
pub fn serve_traced(
    specs: &[StreamSpec],
    trained: Arc<TrainedScheduler>,
    policy: Policy,
    cfg: &ServeConfig,
    svc: &mut FeatureService,
) -> (ServeReport, ObsBundle) {
    let profile = cfg.device.profile();
    let mut controller = AdmissionController::new(CAPACITY_FRACTION);
    let mut shared = SharedDevice::new(WINDOW_MS, MAX_OCCUPANCY);

    let mut decisions = Vec::with_capacity(specs.len());
    let mut active: Vec<ActiveStream> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let decision = if cfg.admission_enabled {
            controller.offer(&trained, &profile, spec.class)
        } else {
            AdmissionDecision::Admitted
        };
        decisions.push(decision);
        if decision == AdmissionDecision::Rejected {
            continue;
        }
        let videos: Vec<Video> = spec
            .videos
            .iter()
            .map(|v| Video::generate(v.clone()))
            .collect();
        let first_video_seed = spec.videos.first().map_or(0, |v| v.seed);
        let seed = stream_seed(cfg.seed, first_video_seed);
        let mut run_cfg = RunConfig::clean(cfg.device, 0.0, spec.class.slo_ms(), seed);
        run_cfg.contention_adaptive = cfg.contention_adaptive;
        let mut pipeline = StreamPipeline::new(videos, trained.clone(), policy, &run_cfg);
        let degraded = decision == AdmissionDecision::Degraded;
        if degraded {
            pipeline.set_headroom(DEGRADED_HEADROOM);
        }
        let mut device = DeviceSim::new(cfg.device, 0.0, seed);
        if let Some(fault) = cfg.fault {
            // Per-stream fault schedule: derived from the fault seed and
            // the stream's first video seed (position-independent, like
            // the noise seed above).
            let plan_seed = stream_seed(fault.seed ^ 0xFA17, first_video_seed);
            device.set_fault_plan(lr_device::FaultPlan::generate(fault.with_seed(plan_seed)));
        }
        let booked_fraction = if cfg.admission_enabled {
            AdmissionController::booked_fraction(&trained, &profile, spec.class, decision)
        } else {
            0.0
        };
        active.push(ActiveStream {
            spec_idx: i,
            slot: shared.register(),
            device,
            svc: FeatureService::with_raster_size(svc.raster_size()),
            pipeline,
            priority: spec.class.priority(),
            period_ms: spec.class.frame_period_ms(),
            degradable: spec.class.degradable(),
            degraded,
            degraded_midrun: false,
            slowdown_sum: 0.0,
            gofs: 0,
            consecutive_violations: 0,
            last_gof: None,
            fault_window: std::collections::VecDeque::new(),
            backed_off_until: None,
            evicted_at_ms: 0.0,
            backoff_ms: FAULT_BACKOFF_MS,
            evictions: 0,
            recovery_ms_total: 0.0,
            terminal_evicted: false,
            booked_fraction,
            obs: StreamObs::new(cfg.obs),
        });
    }

    // Round-based dispatch with priority aging: each iteration gathers
    // the cohort of streams whose aged clocks are within one quantum of
    // the furthest-behind stream and steps them all, in parallel,
    // against the same pre-round occupancy snapshot.
    let pool = lr_pool::Pool::resolve(cfg.pool_threads);
    let mut round_records: Vec<RoundRecord> = Vec::new();
    loop {
        let min_key = active
            .iter()
            .filter(|s| s.runnable())
            .map(ActiveStream::aged_key)
            .fold(f64::INFINITY, f64::min);
        if !min_key.is_finite() {
            break;
        }
        let threshold = min_key + ROUND_QUANTUM_MS;
        // Membership is computed serially, in stream order. A backed-off
        // stream whose backoff has elapsed (its ready time folds the
        // backoff in) is re-offered to the admission controller here:
        // re-admitted streams rejoin the round, a rejected re-offer is a
        // terminal eviction (the controller never freed enough capacity).
        let mut round: Vec<&mut ActiveStream> = Vec::new();
        for s in active.iter_mut() {
            if !s.runnable() || s.aged_key() > threshold {
                continue;
            }
            if let Some(until) = s.backed_off_until {
                let class = specs[s.spec_idx].class;
                let decision = if cfg.admission_enabled {
                    controller.offer(&trained, &profile, class)
                } else {
                    AdmissionDecision::Admitted
                };
                if decision == AdmissionDecision::Rejected {
                    s.terminal_evicted = true;
                    continue;
                }
                s.booked_fraction =
                    AdmissionController::booked_fraction(&trained, &profile, class, decision);
                s.backed_off_until = None;
                s.recovery_ms_total += until - s.evicted_at_ms;
                s.device.idle_until(until);
                if decision == AdmissionDecision::Degraded && !s.degraded {
                    s.pipeline.set_headroom(DEGRADED_HEADROOM);
                    s.degraded = true;
                    s.degraded_midrun = true;
                }
            }
            round.push(s);
        }
        if round.is_empty() {
            // Every in-threshold stream was terminally evicted this
            // iteration; re-evaluate the remaining population.
            continue;
        }
        if cfg.obs == ObsMode::Trace {
            round_records.push(RoundRecord {
                idx: round_records.len() as u64,
                threshold_ms: threshold,
                members: round.iter().map(|s| s.spec_idx as u32).collect(),
            });
        }

        // Publish each member's expected demand (its previous GoF's
        // footprint at its upcoming start) before anyone measures. A
        // round's members record their actual demand only after the
        // round, so without these reservations they would be mutually
        // invisible — and that blind spot grows with the round's
        // wall-span, making measured contention *drop* exactly when
        // load is heaviest. Reservations keep occupancy monotone in
        // the number of co-scheduled streams.
        for s in &round {
            if let Some((span_ms, demand_ms)) = s.last_gof {
                let start = s.ready_ms();
                shared.reserve(s.slot, start, start + span_ms, demand_ms);
            }
        }

        // Parallel section: each member steps one GoF. The shared
        // device is only read here (the slowdown snapshot), and every
        // stream owns its device clock, noise stream, and feature
        // cache, so this is deterministic for any worker count.
        let outcomes = pool.par_map_mut(&mut round, |_, s| {
            // Pacing: wait for the GoF's head frame to arrive. A stream
            // can never run ahead of its camera, so its steady-state
            // GPU demand fraction is bounded by gpu_ms_per_frame /
            // period.
            s.device.idle_until(s.ready_ms());
            let start = s.device.now_ms();
            let slowdown = shared.slowdown_for(s.slot, start);
            s.device.set_external_gpu_slowdown(slowdown);
            s.pipeline.observe_contention(slowdown);
            let obs = &mut s.obs;
            let step = s.pipeline.step_gof_obs(&mut s.svc, &mut s.device, obs);
            (start, s.device.now_ms(), slowdown, step)
        });

        // Serial post-pass in stream order: publish demand to the
        // shared device, then apply violation-driven backpressure — a
        // degradable stream that keeps blowing its SLO is pushed into
        // the degraded mode mid-run.
        for (s, (start, end, slowdown, step)) in round.iter_mut().zip(outcomes) {
            shared.clear_reservation(s.slot);
            // Round members are filtered on !finished(), so step_gof_obs
            // returns Some; a None (impossible by construction) would
            // mean the stream made no progress — skip its bookkeeping
            // rather than panic inside the serving loop.
            let Some(step) = step else { continue };
            shared.record(s.slot, start, end, step.gpu_demand_ms);
            s.last_gof = Some((end - start, step.gpu_demand_ms));
            s.slowdown_sum += slowdown;
            s.gofs += 1;
            if step.per_frame_ms > s.pipeline.slo_ms() {
                s.consecutive_violations += 1;
                if s.consecutive_violations >= BACKPRESSURE_GOFS && s.degradable && !s.degraded {
                    s.pipeline.set_headroom(DEGRADED_HEADROOM);
                    s.degraded = true;
                    s.degraded_midrun = true;
                    s.consecutive_violations = 0;
                }
            } else {
                s.consecutive_violations = 0;
            }
            // Fault accounting: a stream whose recent GoFs keep faulting
            // is evicted — its booked capacity released — and re-offered
            // only after an exponential backoff. A clean run never faults,
            // so it never evicts, and a stream that has just served its
            // last frame has nothing left to back off.
            s.fault_window.push_back(step.faults > 0);
            if s.fault_window.len() > FAULT_WINDOW_GOFS {
                s.fault_window.pop_front();
            }
            let faulted = s.fault_window.iter().filter(|&&f| f).count();
            if !s.pipeline.finished()
                && s.fault_window.len() == FAULT_WINDOW_GOFS
                && faulted as f64 >= FAULT_RATE_THRESHOLD * FAULT_WINDOW_GOFS as f64
            {
                s.evictions += 1;
                s.evicted_at_ms = s.device.now_ms();
                s.backed_off_until = Some(s.evicted_at_ms + s.backoff_ms);
                s.backoff_ms = (s.backoff_ms * 2.0).min(FAULT_BACKOFF_MAX_MS);
                s.fault_window.clear();
                if cfg.admission_enabled {
                    controller.release(s.booked_fraction);
                    s.booked_fraction = 0.0;
                }
            }
        }
    }

    // Assemble the report — and drain per-stream observers — in offer
    // order. `active` holds streams in spec order, and each stream's
    // events are already in its own GoF order, so the merged event
    // stream is globally (stream, gof)-ordered regardless of how rounds
    // interleaved the streams in virtual time.
    let mut bundle = ObsBundle::default();
    let mut finished: Vec<Option<StreamReport>> = (0..specs.len()).map(|_| None).collect();
    for mut s in active {
        let mut events = s.obs.take();
        for ev in &mut events {
            ev.set_stream(s.spec_idx as u32);
        }
        bundle.events.extend(events);
        let spec = &specs[s.spec_idx];
        let slo_ms = spec.class.slo_ms();
        let mean_slowdown = if s.gofs == 0 {
            1.0
        } else {
            s.slowdown_sum / s.gofs as f64
        };
        let result = s.pipeline.into_result();
        finished[s.spec_idx] = Some(StreamReport {
            name: spec.name.clone(),
            class: spec.class,
            decision: decisions[s.spec_idx],
            degraded_midrun: s.degraded_midrun,
            map: result.map,
            violation_rate: result.latency.violation_rate(slo_ms),
            frames: result.breakdown.frames,
            gofs: s.gofs,
            mean_slowdown,
            latency: result.latency,
            faults: result.faults,
            degraded_gofs: result.degraded_gofs,
            evictions: s.evictions,
            terminal_evicted: s.terminal_evicted,
            recovery_ms_total: s.recovery_ms_total,
        });
    }
    let streams = specs
        .iter()
        .zip(decisions)
        .zip(finished)
        .map(|((spec, decision), report)| {
            report.unwrap_or_else(|| StreamReport {
                name: spec.name.clone(),
                class: spec.class,
                decision,
                degraded_midrun: false,
                map: 0.0,
                latency: lr_eval::LatencyStats::new(),
                violation_rate: 0.0,
                frames: 0,
                gofs: 0,
                mean_slowdown: 1.0,
                faults: 0,
                degraded_gofs: 0,
                evictions: 0,
                terminal_evicted: false,
                recovery_ms_total: 0.0,
            })
        })
        .collect();

    bundle
        .events
        .extend(round_records.into_iter().map(TraceEvent::Round));

    (
        ServeReport {
            admission_enabled: cfg.admission_enabled,
            streams,
        },
        bundle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloClass;
    use litereconfig::offline::{profile_videos, OfflineConfig};
    use litereconfig::{train_scheduler, TrainConfig};
    use lr_kernels::branch::small_catalog;
    use lr_kernels::DetectorFamily;
    use lr_video::VideoSpec;

    fn trained() -> Arc<TrainedScheduler> {
        let videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: 850 + i,
                    seed: 5_850 + i as u64,
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
            seed: 33,
        };
        let ds = profile_videos(&videos, &cfg, &FeatureService::new());
        Arc::new(train_scheduler(
            &ds,
            DetectorFamily::FasterRcnn,
            &TrainConfig::tiny(),
        ))
    }

    #[test]
    fn single_stream_serves_to_completion() {
        let t = trained();
        let mut svc = FeatureService::new();
        let specs = vec![StreamSpec::synthetic(0, SloClass::Bronze, 64)];
        let cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        let r = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        assert_eq!(r.offered(), 1);
        assert_eq!(r.rejected(), 0);
        let s = &r.streams[0];
        assert_eq!(s.frames, 64);
        assert!(s.gofs > 0);
        assert!(s.map > 0.0);
        // Alone on the device: no endogenous contention.
        assert!((s.mean_slowdown - 1.0).abs() < 1e-9, "{}", s.mean_slowdown);
    }

    #[test]
    fn serving_is_deterministic() {
        let t = trained();
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| StreamSpec::synthetic(i, SloClass::Silver, 48))
            .collect();
        let cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        let mut svc = FeatureService::new();
        let a = serve_traced(&specs, t.clone(), Policy::MinCost, &cfg, &mut svc).0;
        let b = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.gofs, y.gofs);
            assert!((x.latency.mean() - y.latency.mean()).abs() < 1e-9);
            assert!((x.map - y.map).abs() < 1e-12);
        }
    }

    #[test]
    fn faulted_serving_survives_and_accounts() {
        let t = trained();
        let mut svc = FeatureService::new();
        // Long enough that the 3-GoF fault window fills with frames
        // left, so evictions happen mid-run and their backoffs run; at
        // this length a final-GoF eviction would also show, as a
        // backoff that never ran halving a stream's mean recovery.
        const FRAMES: usize = 104;
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| StreamSpec::synthetic(i, SloClass::Silver, FRAMES))
            .collect();
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.fault = Some(lr_device::FaultConfig {
            // High enough that two of a stream's three GoFs fault, which
            // is what eviction takes.
            transient_rate: 0.6,
            ..lr_device::FaultConfig::moderate(77)
        });
        let r = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        assert!(r.total_faults() > 0, "60% transient rate must fault");
        assert!(r.degraded_gof_fraction() > 0.0);
        assert!(r.total_evictions() > 0, "no stream was evicted");
        for s in &r.streams {
            if s.admitted() && !s.terminal_evicted {
                // Every admitted, non-terminally-evicted stream finishes,
                // and each of its evictions sat out a backoff that ran.
                assert_eq!(s.frames, FRAMES, "{} did not finish", s.name);
                if s.evictions > 0 {
                    assert!(
                        s.mean_recovery_ms() >= FAULT_BACKOFF_MS,
                        "{} recovered in {} ms per eviction",
                        s.name,
                        s.mean_recovery_ms()
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_serving_is_deterministic() {
        let t = trained();
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| StreamSpec::synthetic(i, SloClass::Silver, 48))
            .collect();
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.fault = Some(lr_device::FaultConfig {
            transient_rate: 0.3,
            ..lr_device::FaultConfig::moderate(78)
        });
        let mut svc = FeatureService::new();
        let a = serve_traced(&specs, t.clone(), Policy::MinCost, &cfg, &mut svc).0;
        let b = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.gofs, y.gofs);
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.degraded_gofs, y.degraded_gofs);
            assert_eq!(x.evictions, y.evictions);
            assert_eq!(x.terminal_evicted, y.terminal_evicted);
            assert_eq!(x.recovery_ms_total.to_bits(), y.recovery_ms_total.to_bits());
            assert_eq!(x.map.to_bits(), y.map.to_bits());
        }
    }

    #[test]
    fn clean_serving_reports_no_faults() {
        let t = trained();
        let mut svc = FeatureService::new();
        let specs = vec![StreamSpec::synthetic(0, SloClass::Bronze, 64)];
        let cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        let r = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.total_evictions(), 0);
        assert_eq!(r.degraded_gof_fraction(), 0.0);
    }

    #[test]
    fn admission_off_admits_everything() {
        let t = trained();
        let mut svc = FeatureService::new();
        let specs: Vec<StreamSpec> = (0..6)
            .map(|i| StreamSpec::synthetic(i, SloClass::Gold, 32))
            .collect();
        let cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
        let r = serve_traced(&specs, t, Policy::MinCost, &cfg, &mut svc).0;
        assert_eq!(r.admitted(), 6);
        assert_eq!(r.rejected(), 0);
        // Six co-scheduled streams: everyone observes real contention.
        for s in &r.streams {
            assert!(s.mean_slowdown > 1.0, "{} saw {}", s.name, s.mean_slowdown);
        }
    }

    #[test]
    fn co_scheduling_slows_streams_down() {
        let t = trained();
        let mut svc = FeatureService::new();
        let cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();

        let alone = serve_traced(
            &[StreamSpec::synthetic(0, SloClass::Bronze, 48)],
            t.clone(),
            Policy::MinCost,
            &cfg,
            &mut svc,
        )
        .0;
        let together = serve_traced(
            &[
                StreamSpec::synthetic(0, SloClass::Bronze, 48),
                StreamSpec::synthetic(1, SloClass::Bronze, 48),
                StreamSpec::synthetic(2, SloClass::Bronze, 48),
            ],
            t,
            Policy::MinCost,
            &cfg,
            &mut svc,
        )
        .0;
        let solo_mean = alone.streams[0].latency.mean();
        let shared_mean = together.streams[0].latency.mean();
        assert!(
            shared_mean > solo_mean,
            "co-scheduled mean {shared_mean} not above solo mean {solo_mean}"
        );
        assert!(together.streams[0].mean_slowdown > 1.05);
    }
}
