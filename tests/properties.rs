//! Cross-crate randomized tests on the core invariants.
//!
//! These used to be `proptest` properties; with no registry access the
//! workspace drives the same invariants from a seeded RNG instead —
//! deterministic across runs, many random cases per property.

use lr_eval::{GtBox, LatencyStats, MapAccumulator, PredBox};
use lr_video::{BBox, Video, VideoSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn arb_bbox(rng: &mut StdRng) -> BBox {
    BBox::new(
        rng.gen_range(0.0f32..500.0),
        rng.gen_range(0.0f32..500.0),
        rng.gen_range(1.0f32..200.0),
        rng.gen_range(1.0f32..200.0),
    )
}

/// IoU is always in [0, 1] and symmetric.
#[test]
fn iou_bounds_and_symmetry() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let a = arb_bbox(&mut rng);
        let b = arb_bbox(&mut rng);
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        // f32 catastrophic cancellation in (x+w)-x at large coordinates
        // bounds the achievable precision.
        assert!((-1e-4..=1.0001).contains(&ab), "IoU {ab} out of bounds");
        assert!((ab - ba).abs() < 1e-4, "IoU asymmetric: {ab} vs {ba}");
    }
}

/// IoU with itself is 1 for valid boxes (up to f32 cancellation in the
/// corner arithmetic).
#[test]
fn iou_self_is_one() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..CASES {
        let a = arb_bbox(&mut rng);
        assert!((a.iou(&a) - 1.0).abs() < 1e-3, "self-IoU {}", a.iou(&a));
    }
}

/// Clamping never grows a box and always fits the frame.
#[test]
fn clamp_shrinks_into_frame() {
    let mut rng = StdRng::seed_from_u64(0xC1A);
    for _ in 0..CASES {
        let a = arb_bbox(&mut rng);
        let w = rng.gen_range(10.0f32..1000.0);
        let h = rng.gen_range(10.0f32..1000.0);
        let c = a.clamped(w, h);
        assert!(c.area() <= a.area() * 1.001 + 1e-2);
        assert!(c.x >= 0.0 && c.right() <= w + 1e-3);
        assert!(c.y >= 0.0 && c.bottom() <= h + 1e-3);
    }
}

/// mAP is always within [0, 1], whatever the inputs.
#[test]
fn map_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xD0E);
    for _ in 0..CASES {
        let mut acc = MapAccumulator::new(0.5);
        let gt: Vec<GtBox> = (0..rng.gen_range(0..8usize))
            .map(|_| GtBox {
                class: rng.gen_range(0..5usize),
                bbox: arb_bbox(&mut rng),
            })
            .collect();
        let preds: Vec<PredBox> = (0..rng.gen_range(0..8usize))
            .map(|_| PredBox {
                class: rng.gen_range(0..5usize),
                bbox: arb_bbox(&mut rng),
                score: rng.gen_range(0.01f32..1.0),
            })
            .collect();
        acc.add_frame(gt, preds);
        let r = acc.finalize();
        assert!((0.0..=1.0).contains(&r.map), "mAP {} out of bounds", r.map);
    }
}

/// Predicting ground truth exactly always yields mAP 1 (when there is
/// ground truth at all).
#[test]
fn perfect_predictions_score_one() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    for _ in 0..CASES {
        let mut acc = MapAccumulator::new(0.5);
        let gt: Vec<GtBox> = (0..rng.gen_range(1..6usize))
            .map(|_| GtBox {
                class: rng.gen_range(0..5usize),
                bbox: arb_bbox(&mut rng),
            })
            .collect();
        let preds: Vec<PredBox> = gt
            .iter()
            .map(|g| PredBox {
                class: g.class,
                bbox: g.bbox,
                score: 0.9,
            })
            .collect();
        acc.add_frame(gt, preds);
        let r = acc.finalize();
        assert!(r.map > 0.99, "mAP {} for perfect predictions", r.map);
    }
}

/// Percentiles are monotone in the quantile.
#[test]
fn percentiles_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for _ in 0..CASES {
        let mut s = LatencyStats::new();
        for _ in 0..rng.gen_range(1..50usize) {
            s.record(rng.gen_range(0.0f64..1000.0));
        }
        assert!(s.percentile(0.5) <= s.percentile(0.95) + 1e-9);
        assert!(s.percentile(0.95) <= s.percentile(1.0) + 1e-9);
        assert!(s.mean() <= s.max() + 1e-9);
    }
}

/// Video generation is deterministic and in-bounds for arbitrary ids.
#[test]
fn videos_are_deterministic_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x51DE0);
    for _ in 0..24 {
        let id = rng.gen_range(0u32..5000);
        let spec = VideoSpec::from_id(id);
        let v = Video::generate(spec.clone());
        assert_eq!(v.len(), spec.num_frames);
        // Spot-check a few frames for in-bounds objects.
        for f in v.frames.iter().step_by(97) {
            for o in &f.objects {
                assert!(o.bbox.x >= -1e-3 && o.bbox.right() <= f.width + 1e-3);
                assert!(o.bbox.y >= -1e-3 && o.bbox.bottom() <= f.height + 1e-3);
                assert!((0.0..=1.0).contains(&o.difficulty));
            }
        }
    }
}

/// The latency statistics over a plain list of samples, as
/// `LatencyStats` computed them before it kept runs: the oracle of
/// `latency_runs_match_a_plain_sample_list_bit_for_bit`.
struct PlainSamples(Vec<f64>);

impl PlainSamples {
    fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    fn percentile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    fn violation_rate(&self, slo_ms: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().filter(|&&s| s > slo_ms).count() as f64 / self.0.len() as f64
    }
}

/// Samples in one of three shapes: GoF-style runs of one value (up to
/// 40 frames each, with `+0.0` and `-0.0` among the values), all-distinct
/// values as the every-frame protocols record, or a mix of both.
fn arb_latency_samples(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(0..300usize);
    let shape = rng.gen_range(0..3u8);
    let mut samples = Vec::with_capacity(n);
    while samples.len() < n {
        let value = match rng.gen_range(0..8u8) {
            _ if shape == 1 => rng.gen_range(0.0f64..200.0),
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(0..4u8) as f64 * 12.5,
            _ => rng.gen_range(0.0f64..200.0),
        };
        let run = match shape {
            0 => rng.gen_range(1..=40usize),
            1 => 1,
            _ => rng.gen_range(1..=3usize),
        };
        samples.extend(std::iter::repeat_n(value, run.min(n - samples.len())));
    }
    samples
}

fn assert_latency_matches(stats: &LatencyStats, plain: &PlainSamples) {
    let bits = |v: f64| v.to_bits();
    assert_eq!(stats.count(), plain.0.len());
    assert_eq!(bits(stats.mean()), bits(plain.mean()), "mean");
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(
            bits(stats.percentile(q)),
            bits(plain.percentile(q)),
            "q {q}"
        );
    }
    assert_eq!(bits(stats.max()), bits(plain.max()), "max");
    let slos = [0.0, 12.5, 25.0, 100.0, plain.percentile(0.5)];
    for slo in slos {
        assert_eq!(
            bits(stats.violation_rate(slo)),
            bits(plain.violation_rate(slo)),
            "SLO {slo}"
        );
    }
}

/// Run-length latency samples give every statistic of the plain sample
/// list bit for bit, also after a merge.
#[test]
fn latency_runs_match_a_plain_sample_list_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    for _ in 0..CASES {
        let a = arb_latency_samples(&mut rng);
        let b = arb_latency_samples(&mut rng);
        let record = |samples: &[f64]| {
            let mut s = LatencyStats::new();
            for &ms in samples {
                s.record(ms);
            }
            s
        };
        let mut stats = record(&a);
        assert_latency_matches(&stats, &PlainSamples(a.clone()));
        stats.merge(&record(&b));
        let merged = [a, b].concat();
        assert_latency_matches(&stats, &PlainSamples(merged.clone()));
        // A self-merge joins the last run to the first when their bits
        // are equal.
        stats.merge(&stats.clone());
        assert_latency_matches(&stats, &PlainSamples(merged.repeat(2)));
    }
}
