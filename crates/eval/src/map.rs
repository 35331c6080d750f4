//! VOC-style mean average precision.

use std::collections::BTreeMap;

use lr_video::BBox;

/// A ground-truth box for evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtBox {
    /// Class index.
    pub class: usize,
    /// Ground-truth bounding box.
    pub bbox: BBox,
}

/// A predicted box for evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredBox {
    /// Predicted class index.
    pub class: usize,
    /// Predicted bounding box.
    pub bbox: BBox,
    /// Confidence score.
    pub score: f32,
}

/// Result of an mAP evaluation.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// Mean AP over classes with at least one ground-truth instance.
    pub map: f64,
    /// Per-class AP, keyed by class index (only classes with ground
    /// truth).
    pub per_class_ap: BTreeMap<usize, f64>,
    /// Total ground-truth instances evaluated.
    pub total_gt: usize,
    /// Total predictions evaluated.
    pub total_pred: usize,
}

/// One ranked prediction: its score and whether it matched ground truth.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f32,
    tp: bool,
}

/// Everything accumulated for one class.
#[derive(Debug, Clone, Default)]
struct ClassData {
    /// Ground-truth instances seen so far.
    npos: usize,
    /// Matched predictions in arrival order; score-ranked after a
    /// finalize.
    ranked: Vec<Ranked>,
}

/// Buffers reused from frame to frame and across classes.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The current frame's ground truth, in insertion order.
    gt: Vec<GtBox>,
    /// Whether each of `gt` is already matched.
    matched: Vec<bool>,
    /// The current frame's predictions, score-ranked.
    preds: Vec<PredBox>,
    recalls: Vec<f64>,
    precisions: Vec<f64>,
}

/// Streaming accumulator: feed ground truth and predictions frame by
/// frame, then finalize into a [`MapResult`].
///
/// Each frame's predictions are matched against that frame's ground
/// truth when they arrive, highest score first; a class keeps only its
/// ground-truth count and each prediction's score and outcome. A
/// prediction can match ground truth of its own frame only, so this
/// gives the same outcomes as ranking every prediction at the end.
/// [`clear`](Self::clear) empties the accumulator and keeps its
/// buffers, so one accumulator can score several prediction sets.
///
/// # Examples
///
/// ```
/// use lr_eval::{GtBox, MapAccumulator, PredBox};
/// use lr_video::BBox;
///
/// let mut acc = MapAccumulator::new(0.5);
/// let gt = [GtBox { class: 0, bbox: BBox::new(0.0, 0.0, 10.0, 10.0) }];
/// let pred = [PredBox { class: 0, bbox: BBox::new(0.5, 0.0, 10.0, 10.0), score: 0.9 }];
/// acc.add_frame(gt, pred);
/// let result = acc.finalize();
/// assert!((result.map - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MapAccumulator {
    iou_threshold: f32,
    /// Indexed by class; grows on demand.
    classes: Vec<ClassData>,
    total_gt: usize,
    total_pred: usize,
    scratch: Scratch,
}

impl MapAccumulator {
    /// Creates an empty accumulator that matches at the given IoU
    /// threshold (the paper uses 0.5).
    pub fn new(iou_threshold: f32) -> Self {
        Self {
            iou_threshold,
            classes: Vec::new(),
            total_gt: 0,
            total_pred: 0,
            scratch: Scratch::default(),
        }
    }

    /// Empties the accumulator, keeping its threshold and buffers.
    pub fn clear(&mut self) {
        for class in &mut self.classes {
            class.npos = 0;
            class.ranked.clear();
        }
        self.total_gt = 0;
        self.total_pred = 0;
    }

    /// Adds the next frame's ground truth and predictions, and matches
    /// the predictions greedily, highest score first: each picks the
    /// frame's ground-truth box of its class with the highest IoU (the
    /// first one on a tie), and is a true positive when that IoU reaches
    /// the threshold and the box is not matched yet.
    pub fn add_frame(
        &mut self,
        gt: impl IntoIterator<Item = GtBox>,
        preds: impl IntoIterator<Item = PredBox>,
    ) {
        let Scratch {
            gt: frame_gt,
            matched,
            preds: frame_preds,
            ..
        } = &mut self.scratch;
        frame_gt.clear();
        frame_gt.extend(gt);
        frame_preds.clear();
        frame_preds.extend(preds);
        // Stable: equal scores keep their arrival order.
        frame_preds.sort_by(|a, b| b.score.total_cmp(&a.score));
        matched.clear();
        matched.resize(frame_gt.len(), false);
        self.total_gt += frame_gt.len();
        self.total_pred += frame_preds.len();

        for g in frame_gt.iter() {
            class_mut(&mut self.classes, g.class).npos += 1;
        }
        for p in frame_preds.iter() {
            let mut best_iou = 0.0f32;
            let mut best_idx = None;
            for (j, g) in frame_gt.iter().enumerate() {
                if g.class == p.class {
                    let iou = p.bbox.iou(&g.bbox);
                    if iou > best_iou {
                        best_iou = iou;
                        best_idx = Some(j);
                    }
                }
            }
            // A duplicate detection of an already-matched GT is a miss.
            let tp = match best_idx {
                Some(j) if best_iou >= self.iou_threshold && !matched[j] => {
                    matched[j] = true;
                    true
                }
                _ => false,
            };
            class_mut(&mut self.classes, p.class)
                .ranked
                .push(Ranked { score: p.score, tp });
        }
    }

    /// Computes mAP over every frame added so far.
    ///
    /// Classes with ground truth but no predictions score AP 0; classes
    /// with predictions but no ground truth are ignored (standard VOC).
    /// An evaluation with no ground truth at all yields mAP 0. Ranks the
    /// predictions in place, which changes no later result: the rank is
    /// a stable sort, so ties keep their arrival order.
    pub fn finalize(&mut self) -> MapResult {
        let mut per_class_ap = BTreeMap::new();
        for (class, data) in self.classes.iter_mut().enumerate() {
            if data.npos > 0 {
                per_class_ap.insert(class, data.average_precision(&mut self.scratch));
            }
        }
        // Sum in ascending class order, so the last bits of mAP never
        // depend on the order classes first appeared in.
        let map = if per_class_ap.is_empty() {
            0.0
        } else {
            per_class_ap.values().sum::<f64>() / per_class_ap.len() as f64
        };
        MapResult {
            map,
            per_class_ap,
            total_gt: self.total_gt,
            total_pred: self.total_pred,
        }
    }
}

/// The data of `class`, growing the dense storage on demand.
fn class_mut(classes: &mut Vec<ClassData>, class: usize) -> &mut ClassData {
    if class >= classes.len() {
        classes.resize_with(class + 1, ClassData::default);
    }
    &mut classes[class]
}

impl ClassData {
    /// AP via all-point interpolation over the matched predictions,
    /// ranked by score. Requires at least one ground-truth box.
    fn average_precision(&mut self, scratch: &mut Scratch) -> f64 {
        let npos = self.npos;
        // Stable: ties keep frame order, then a frame's own rank.
        self.ranked.sort_by(|a, b| b.score.total_cmp(&a.score));
        let Scratch {
            recalls,
            precisions,
            ..
        } = scratch;
        recalls.clear();
        precisions.clear();

        // The precision-recall curve, highest score first.
        let mut cum_tp = 0usize;
        for (i, r) in self.ranked.iter().enumerate() {
            cum_tp += usize::from(r.tp);
            recalls.push(cum_tp as f64 / npos as f64);
            precisions.push(cum_tp as f64 / (i + 1) as f64);
        }
        // Monotone precision envelope (right to left).
        for i in (0..precisions.len().saturating_sub(1)).rev() {
            if precisions[i] < precisions[i + 1] {
                precisions[i] = precisions[i + 1];
            }
        }
        // Integrate over recall steps.
        let mut ap = 0.0;
        let mut prev_recall = 0.0;
        for (&r, &p) in recalls.iter().zip(precisions.iter()) {
            if r > prev_recall {
                ap += (r - prev_recall) * p;
                prev_recall = r;
            }
        }
        ap
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn gt(class: usize, x: f32) -> GtBox {
        GtBox {
            class,
            bbox: BBox::new(x, 0.0, 10.0, 10.0),
        }
    }

    fn pred(class: usize, x: f32, score: f32) -> PredBox {
        PredBox {
            class,
            bbox: BBox::new(x, 0.0, 10.0, 10.0),
            score,
        }
    }

    #[test]
    fn perfect_detection_gives_map_one() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame(
            [gt(0, 0.0), gt(1, 50.0)],
            [pred(0, 0.0, 0.9), pred(1, 50.0, 0.8)],
        );
        let r = acc.finalize();
        assert!((r.map - 1.0).abs() < 1e-9);
        assert_eq!(r.per_class_ap.len(), 2);
    }

    #[test]
    fn no_predictions_gives_map_zero() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame([gt(0, 0.0)], []);
        assert_eq!(acc.finalize().map, 0.0);
    }

    #[test]
    fn wrong_class_is_a_miss() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame([gt(0, 0.0)], [pred(1, 0.0, 0.9)]);
        assert_eq!(acc.finalize().map, 0.0);
    }

    #[test]
    fn poorly_localized_box_is_a_miss() {
        let mut acc = MapAccumulator::new(0.5);
        // IoU of (0,0,10,10) and (8,0,10,10) is 2/18 = 0.11 < 0.5.
        acc.add_frame([gt(0, 0.0)], [pred(0, 8.0, 0.9)]);
        assert_eq!(acc.finalize().map, 0.0);
    }

    #[test]
    fn duplicate_detections_count_once() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame([gt(0, 0.0)], [pred(0, 0.0, 0.9), pred(0, 0.5, 0.8)]);
        let r = acc.finalize();
        // One TP at rank 1, one FP at rank 2: AP = 1.0 (recall saturates
        // at the first prediction).
        assert!((r.map - 1.0).abs() < 1e-9);
    }

    #[test]
    fn false_positive_before_tp_halves_precision() {
        let mut acc = MapAccumulator::new(0.5);
        // Higher-scored FP first, then the TP: precision at recall 1 is
        // 1/2, and AP = 0.5.
        acc.add_frame([gt(0, 0.0)], [pred(0, 40.0, 0.9), pred(0, 0.0, 0.8)]);
        let r = acc.finalize();
        assert!((r.map - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_one_of_two_objects_gives_half_recall() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame([gt(0, 0.0), gt(0, 50.0)], [pred(0, 0.0, 0.9)]);
        let r = acc.finalize();
        assert!((r.map - 0.5).abs() < 1e-9);
    }

    #[test]
    fn classes_without_gt_are_ignored() {
        let mut acc = MapAccumulator::new(0.5);
        acc.add_frame([gt(0, 0.0)], [pred(0, 0.0, 0.9), pred(5, 70.0, 0.95)]);
        let r = acc.finalize();
        assert!((r.map - 1.0).abs() < 1e-9);
        assert!(!r.per_class_ap.contains_key(&5));
    }

    #[test]
    fn matching_is_per_frame() {
        let mut acc = MapAccumulator::new(0.5);
        // GT only on frame 0; a prediction on frame 1 cannot match it.
        acc.add_frame([gt(0, 0.0)], []);
        acc.add_frame([], [pred(0, 0.0, 0.9)]);
        assert_eq!(acc.finalize().map, 0.0);
    }

    #[test]
    fn higher_iou_threshold_is_stricter() {
        let mut acc = MapAccumulator::new(0.5);
        // Offset box: IoU = (10-3)/(2*10*10/10 - 7) -> compute: boxes
        // (0..10) vs (3..13): inter 7*10=70, union 130, IoU ~0.538.
        let mut strict = MapAccumulator::new(0.6);
        acc.add_frame([gt(0, 0.0)], [pred(0, 3.0, 0.9)]);
        strict.add_frame([gt(0, 0.0)], [pred(0, 3.0, 0.9)]);
        assert!(acc.finalize().map > 0.9);
        assert_eq!(strict.finalize().map, 0.0);
    }

    #[test]
    fn empty_accumulator_yields_zero() {
        let mut acc = MapAccumulator::new(0.5);
        let r = acc.finalize();
        assert_eq!(r.map, 0.0);
        assert_eq!(r.total_gt, 0);
    }

    /// AP must be monotonically non-increasing as detections lose
    /// localization quality.
    #[test]
    fn ap_decreases_with_jitter() {
        let eval_with_offset = |off: f32| {
            let mut acc = MapAccumulator::new(0.5);
            for i in 0..50 {
                let x = i as f32 * 20.0;
                acc.add_frame([gt(0, x)], [pred(0, x + off, 0.9 - i as f32 * 0.001)]);
            }
            acc.finalize().map
        };
        assert!(eval_with_offset(0.0) >= eval_with_offset(2.0));
        assert!(eval_with_offset(2.0) >= eval_with_offset(6.0));
    }

    /// The `BTreeMap`-based accumulator the dense one replaced, kept
    /// verbatim as the bit-exact oracle.
    mod reference {
        use std::collections::BTreeMap;

        use super::{GtBox, MapResult, PredBox};
        use lr_video::BBox;

        #[derive(Debug, Clone, Copy)]
        struct PredRecord {
            frame: u64,
            score: f32,
            bbox: BBox,
        }

        #[derive(Debug, Clone, Default)]
        pub(crate) struct MapAccumulator {
            next_frame: u64,
            gt: BTreeMap<usize, BTreeMap<u64, Vec<BBox>>>,
            preds: BTreeMap<usize, Vec<PredRecord>>,
            total_gt: usize,
            total_pred: usize,
        }

        impl MapAccumulator {
            pub(crate) fn add_frame(&mut self, gt: &[GtBox], preds: &[PredBox]) {
                let frame = self.next_frame;
                self.next_frame += 1;
                for g in gt {
                    self.gt
                        .entry(g.class)
                        .or_default()
                        .entry(frame)
                        .or_default()
                        .push(g.bbox);
                    self.total_gt += 1;
                }
                for p in preds {
                    self.preds.entry(p.class).or_default().push(PredRecord {
                        frame,
                        score: p.score,
                        bbox: p.bbox,
                    });
                    self.total_pred += 1;
                }
            }

            pub(crate) fn finalize(&self, iou_threshold: f32) -> MapResult {
                let mut per_class_ap = BTreeMap::new();
                for (&class, gt_frames) in &self.gt {
                    let npos: usize = gt_frames.values().map(Vec::len).sum();
                    let preds = self.preds.get(&class).cloned().unwrap_or_default();
                    let ap = average_precision(gt_frames, preds, npos, iou_threshold);
                    per_class_ap.insert(class, ap);
                }
                let map = if per_class_ap.is_empty() {
                    0.0
                } else {
                    let mut classes: Vec<usize> = per_class_ap.keys().copied().collect();
                    classes.sort_unstable();
                    classes.iter().map(|c| per_class_ap[c]).sum::<f64>() / per_class_ap.len() as f64
                };
                MapResult {
                    map,
                    per_class_ap,
                    total_gt: self.total_gt,
                    total_pred: self.total_pred,
                }
            }
        }

        fn average_precision(
            gt_frames: &BTreeMap<u64, Vec<BBox>>,
            mut preds: Vec<PredRecord>,
            npos: usize,
            iou_threshold: f32,
        ) -> f64 {
            if npos == 0 {
                return 0.0;
            }
            preds.sort_by(|a, b| b.score.total_cmp(&a.score));
            let mut matched: BTreeMap<u64, Vec<bool>> = gt_frames
                .iter()
                .map(|(&f, boxes)| (f, vec![false; boxes.len()]))
                .collect();

            let mut tp = Vec::with_capacity(preds.len());
            for p in &preds {
                let mut best_iou = 0.0f32;
                let mut best_idx = None;
                if let Some(boxes) = gt_frames.get(&p.frame) {
                    for (i, g) in boxes.iter().enumerate() {
                        let iou = p.bbox.iou(g);
                        if iou > best_iou {
                            best_iou = iou;
                            best_idx = Some(i);
                        }
                    }
                }
                let is_tp = match best_idx {
                    Some(i) if best_iou >= iou_threshold => {
                        let flags = matched.get_mut(&p.frame).expect("frame flags");
                        if flags[i] {
                            false
                        } else {
                            flags[i] = true;
                            true
                        }
                    }
                    _ => false,
                };
                tp.push(is_tp);
            }

            let mut cum_tp = 0usize;
            let mut recalls = Vec::with_capacity(tp.len());
            let mut precisions = Vec::with_capacity(tp.len());
            for (i, &is_tp) in tp.iter().enumerate() {
                if is_tp {
                    cum_tp += 1;
                }
                recalls.push(cum_tp as f64 / npos as f64);
                precisions.push(cum_tp as f64 / (i + 1) as f64);
            }
            for i in (0..precisions.len().saturating_sub(1)).rev() {
                if precisions[i] < precisions[i + 1] {
                    precisions[i] = precisions[i + 1];
                }
            }
            let mut ap = 0.0;
            let mut prev_recall = 0.0;
            for (&r, &p) in recalls.iter().zip(precisions.iter()) {
                if r > prev_recall {
                    ap += (r - prev_recall) * p;
                    prev_recall = r;
                }
            }
            ap
        }
    }

    /// SplitMix64: a dependency-free seeded generator for the
    /// differential tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Boxes on a coarse grid, so exact-threshold IoUs (a 10×10 box
    /// inside a 20×10 one is IoU 0.5) and identical boxes are common.
    fn grid_box(rng: &mut SplitMix) -> BBox {
        BBox::new(
            rng.pick(&[0.0, 5.0, 10.0]),
            rng.pick(&[0.0, 10.0]),
            rng.pick(&[10.0, 20.0]),
            10.0,
        )
    }

    /// Classes 0..40, so indices at and above 30 occur too.
    fn random_class(rng: &mut SplitMix) -> usize {
        if rng.below(4) == 0 {
            rng.below(40) as usize
        } else {
            rng.below(3) as usize
        }
    }

    /// Predictions for one frame: score ties, exact copies of ground
    /// truth (duplicate detections) and stray classes.
    fn random_preds(rng: &mut SplitMix, gt: &[GtBox]) -> Vec<PredBox> {
        (0..rng.below(7))
            .map(|_| {
                let score = rng.pick(&[0.2, 0.5, 0.5, 0.9]);
                match gt.get(rng.below(gt.len() as u64 + 2) as usize) {
                    Some(g) => PredBox {
                        class: g.class,
                        bbox: g.bbox,
                        score,
                    },
                    None => PredBox {
                        class: random_class(rng),
                        bbox: grid_box(rng),
                        score,
                    },
                }
            })
            .collect()
    }

    /// Ground truth per frame; some frames are empty.
    fn random_gt(rng: &mut SplitMix, frames: usize) -> Vec<Vec<GtBox>> {
        (0..frames)
            .map(|_| {
                (0..rng.below(5))
                    .map(|_| GtBox {
                        class: random_class(rng),
                        bbox: grid_box(rng),
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_bit_equal(a: &MapResult, b: &MapResult) {
        let bits = |r: &MapResult| {
            r.per_class_ap
                .iter()
                .map(|(&c, ap)| (c, ap.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(a.map.to_bits(), b.map.to_bits(), "{} vs {}", a.map, b.map);
        assert_eq!(bits(a), bits(b));
        assert_eq!((a.total_gt, a.total_pred), (b.total_gt, b.total_pred));
    }

    /// How often a differential sweep met each case the on-arrival
    /// matching must get right.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Frames with two predictions of one class at one score.
        score_ties: usize,
        /// Frames with two identical ground-truth boxes of one class.
        duplicate_gt: usize,
        /// Frames with two identical predictions of one class.
        duplicate_preds: usize,
        /// Frames with neither ground truth nor predictions.
        empty_frames: usize,
        /// Classes predicted in a case that has no ground truth of them.
        prediction_only_classes: usize,
    }

    impl Coverage {
        fn tally(&mut self, gt: &[Vec<GtBox>], preds: &[Vec<PredBox>]) {
            let pairs = |n: usize| (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)));
            for (g, p) in gt.iter().zip(preds) {
                let same_pred = |f: &dyn Fn(&PredBox, &PredBox) -> bool| {
                    pairs(p.len()).any(|(i, j)| p[i].class == p[j].class && f(&p[i], &p[j]))
                };
                self.score_ties += usize::from(same_pred(&|a, b| a.score == b.score));
                self.duplicate_preds += usize::from(same_pred(&|a, b| a.bbox == b.bbox));
                self.duplicate_gt += usize::from(pairs(g.len()).any(|(i, j)| g[i] == g[j]));
                self.empty_frames += usize::from(g.is_empty() && p.is_empty());
            }
            let gt_classes: BTreeSet<usize> = gt.iter().flatten().map(|g| g.class).collect();
            let pred_classes: BTreeSet<usize> = preds.iter().flatten().map(|p| p.class).collect();
            self.prediction_only_classes += pred_classes.difference(&gt_classes).count();
        }
    }

    #[test]
    fn dense_matches_the_reference_bit_for_bit() {
        let mut rng = SplitMix(0x5eed);
        let mut coverage = Coverage::default();
        for _ in 0..400 {
            // Up to 30 frames, so a class often ranks more than the 20
            // predictions below which even an unstable sort keeps ties
            // in order.
            let frames = rng.below(30) as usize;
            let gt = random_gt(&mut rng, frames);
            let preds: Vec<Vec<PredBox>> = gt.iter().map(|g| random_preds(&mut rng, g)).collect();
            coverage.tally(&gt, &preds);
            let mut oracle = reference::MapAccumulator::default();
            for (g, p) in gt.iter().zip(&preds) {
                oracle.add_frame(g, p);
            }
            for iou in [0.3, 0.5, 0.75] {
                let mut dense = MapAccumulator::new(iou);
                for (g, p) in gt.iter().zip(&preds) {
                    dense.add_frame(g.iter().copied(), p.iter().copied());
                }
                assert_bit_equal(&dense.finalize(), &oracle.finalize(iou));
            }
        }
        let Coverage {
            score_ties,
            duplicate_gt,
            duplicate_preds,
            empty_frames,
            prediction_only_classes,
        } = coverage;
        for (case, n) in [
            ("score ties", score_ties),
            ("duplicate ground truth", duplicate_gt),
            ("duplicate predictions", duplicate_preds),
            ("empty frames", empty_frames),
            ("prediction-only classes", prediction_only_classes),
        ] {
            assert!(n >= 100, "the sweep met {case} only {n} times");
        }
    }

    #[test]
    fn edge_classes_match_the_reference() {
        // GT-only class 1, prediction-only classes 31 and 7, GT-only
        // class 35 past every predicted class, empty frames, and a 10×10
        // prediction inside a 20×10 GT box: IoU exactly 0.5. Frame 3
        // has two identical ground-truth boxes and three tied identical
        // predictions on them: the first-max scan picks the first box
        // every time, so only the first prediction matches. Frame 4 ties
        // a miss before a hit at one score, and frame 5 ties a miss with
        // them across frames.
        let wide = GtBox {
            class: 0,
            bbox: BBox::new(0.0, 0.0, 20.0, 10.0),
        };
        let frames = [
            (
                vec![gt(0, 0.0), gt(1, 20.0), gt(35, 40.0)],
                vec![pred(0, 0.0, 0.7), pred(31, 0.0, 0.9)],
            ),
            (vec![], vec![]),
            (vec![wide], vec![pred(0, 0.0, 0.7), pred(0, 0.0, 0.7)]),
            (
                vec![gt(2, 0.0), gt(2, 0.0)],
                vec![pred(2, 0.0, 0.6), pred(2, 0.0, 0.6), pred(2, 0.0, 0.6)],
            ),
            (
                vec![gt(2, 30.0)],
                vec![pred(2, 60.0, 0.6), pred(7, 30.0, 0.6), pred(2, 30.0, 0.6)],
            ),
            (vec![], vec![pred(2, 0.0, 0.6), pred(7, 0.0, 0.95)]),
            (vec![], vec![]),
        ];
        let mut dense = MapAccumulator::new(0.5);
        let mut oracle = reference::MapAccumulator::default();
        for (g, p) in &frames {
            dense.add_frame(g.iter().copied(), p.iter().copied());
            oracle.add_frame(g, p);
        }
        let r = dense.finalize();
        assert_eq!(
            r.per_class_ap.keys().copied().collect::<Vec<_>>(),
            [0, 1, 2, 35]
        );
        assert_bit_equal(&r, &oracle.finalize(0.5));
        // Class 2 ranks hit, miss, miss, miss, hit, miss at one score in
        // frame order, and one of its three boxes is never matched:
        // recall 1/3 at precision 1, then 2/3 at precision 2/5.
        assert!((r.per_class_ap[&2] - (1.0 / 3.0 + 2.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn a_cleared_or_fresh_accumulator_per_branch_equals_the_reference() {
        let mut rng = SplitMix(0xc1ea);
        let mut shared = MapAccumulator::new(0.5);
        for _ in 0..50 {
            let frames = 1 + rng.below(8) as usize;
            let gt = random_gt(&mut rng, frames);
            // Several branches' predictions over one snippet's ground
            // truth, as profiling scores them.
            for _ in 0..4 {
                let preds: Vec<Vec<PredBox>> =
                    gt.iter().map(|g| random_preds(&mut rng, g)).collect();
                shared.clear();
                let mut fresh = MapAccumulator::new(0.5);
                let mut oracle = reference::MapAccumulator::default();
                for (g, p) in gt.iter().zip(&preds) {
                    shared.add_frame(g.iter().copied(), p.iter().copied());
                    fresh.add_frame(g.iter().copied(), p.iter().copied());
                    oracle.add_frame(g, p);
                }
                let r = oracle.finalize(0.5);
                assert_bit_equal(&shared.finalize(), &r);
                assert_bit_equal(&fresh.finalize(), &r);
            }
        }
    }
}
