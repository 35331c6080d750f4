//! Execution branches: the MBEK's tuning-knob space.

/// Detector knobs: input resolution and proposal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DetectorConfig {
    /// Input resolution (short side in pixels) the frame is resized to.
    pub shape: u32,
    /// Number of region proposals kept after the RPN.
    pub nprop: u32,
}

impl DetectorConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs.
    pub fn new(shape: u32, nprop: u32) -> Self {
        assert!((96..=1024).contains(&shape), "shape {shape} out of range");
        assert!((1..=300).contains(&nprop), "nprop {nprop} out of range");
        Self { shape, nprop }
    }

    /// A stable key identifying the detector configuration.
    pub fn key(self) -> u64 {
        (self.shape as u64) << 16 | self.nprop as u64
    }
}

/// The four tracker types the MBEK pairs with its detector (same set as
/// ApproxDet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackerKind {
    /// Median Flow: very cheap, drifts quickly under fast motion.
    MedianFlow,
    /// Kernelized Correlation Filter: cheap, moderately robust.
    Kcf,
    /// Channel and Spatial Reliability Tracker: accurate but slow.
    Csrt,
    /// Sparse optical flow (Lucas–Kanade style): mid cost, blur-sensitive.
    OpticalFlow,
}

impl TrackerKind {
    /// All tracker kinds.
    pub fn all() -> [TrackerKind; 4] {
        [
            TrackerKind::MedianFlow,
            TrackerKind::Kcf,
            TrackerKind::Csrt,
            TrackerKind::OpticalFlow,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TrackerKind::MedianFlow => "MedianFlow",
            TrackerKind::Kcf => "KCF",
            TrackerKind::Csrt => "CSRT",
            TrackerKind::OpticalFlow => "OpticalFlow",
        }
    }

    /// A small integer id for keys.
    pub fn id(self) -> u64 {
        match self {
            TrackerKind::MedianFlow => 1,
            TrackerKind::Kcf => 2,
            TrackerKind::Csrt => 3,
            TrackerKind::OpticalFlow => 4,
        }
    }
}

/// One execution branch of the MBEK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Branch {
    /// Detector configuration.
    pub detector: DetectorConfig,
    /// Tracker used for non-detection frames; `None` iff `gof_size == 1`.
    pub tracker: Option<TrackerKind>,
    /// GoF size `si`: the detector runs every `si` frames.
    pub gof_size: u32,
    /// Tracker input downsampling ratio `ds`.
    pub downsample: u32,
}

impl Branch {
    /// Creates a detector-only branch (detector on every frame).
    pub fn detector_only(shape: u32, nprop: u32) -> Self {
        Self {
            detector: DetectorConfig::new(shape, nprop),
            tracker: None,
            gof_size: 1,
            downsample: 1,
        }
    }

    /// Creates a tracking-by-detection branch.
    ///
    /// # Panics
    ///
    /// Panics if `gof_size < 2` or `downsample` is zero.
    pub fn tracked(
        shape: u32,
        nprop: u32,
        tracker: TrackerKind,
        gof_size: u32,
        downsample: u32,
    ) -> Self {
        assert!(gof_size >= 2, "tracked branches need gof_size >= 2");
        assert!(downsample >= 1, "downsample must be >= 1");
        Self {
            detector: DetectorConfig::new(shape, nprop),
            tracker: Some(tracker),
            gof_size,
            downsample,
        }
    }

    /// A stable key identifying the branch (used for switching-cost
    /// bookkeeping and model outputs).
    pub fn key(self) -> u64 {
        let t = self.tracker.map_or(0, TrackerKind::id);
        self.detector.key() << 24 | t << 16 | (self.gof_size as u64) << 4 | self.downsample as u64
    }

    /// Human-readable name, e.g. `frcnn-448x20+KCF/si8/ds4`.
    pub fn name(&self) -> String {
        match self.tracker {
            None => format!("frcnn-{}x{}", self.detector.shape, self.detector.nprop),
            Some(t) => format!(
                "frcnn-{}x{}+{}/si{}/ds{}",
                self.detector.shape,
                self.detector.nprop,
                t.name(),
                self.gof_size,
                self.downsample
            ),
        }
    }
}

/// The shapes used by the default catalog.
pub const CATALOG_SHAPES: [u32; 4] = [224, 320, 448, 576];
/// The proposal counts used by the default catalog.
pub const CATALOG_NPROPS: [u32; 4] = [1, 5, 20, 100];
/// The GoF sizes used by the default catalog.
pub const CATALOG_GOFS: [u32; 4] = [4, 8, 20, 50];

/// The default branch catalog the scheduler optimizes over.
///
/// Per detector config: one detector-only branch plus every
/// (tracker, gof) combination at `ds = 4` (ApproxDet's best-performing
/// downsampling on embedded boards), yielding
/// `4 shapes x 4 nprops x (1 + 4 trackers x 4 gofs) = 272` branches.
pub fn default_catalog() -> Vec<Branch> {
    let mut out = Vec::new();
    for &shape in &CATALOG_SHAPES {
        for &nprop in &CATALOG_NPROPS {
            out.push(Branch::detector_only(shape, nprop));
            for tracker in TrackerKind::all() {
                for &gof in &CATALOG_GOFS {
                    out.push(Branch::tracked(shape, nprop, tracker, gof, 4));
                }
            }
        }
    }
    out
}

/// The catalog used by the one-stage baselines (SSD+, YOLO+): the same
/// tracker/GoF knobs but no proposal knob (one-stage detectors have no
/// RPN; `nprop` is pinned to 100 by convention), yielding
/// `4 shapes x (1 + 4 trackers x 4 gofs) = 68` branches.
pub fn one_stage_catalog() -> Vec<Branch> {
    let mut out = Vec::new();
    for &shape in &CATALOG_SHAPES {
        out.push(Branch::detector_only(shape, 100));
        for tracker in TrackerKind::all() {
            for &gof in &CATALOG_GOFS {
                out.push(Branch::tracked(shape, 100, tracker, gof, 4));
            }
        }
    }
    out
}

/// A small catalog (18 branches) for fast tests.
pub fn small_catalog() -> Vec<Branch> {
    let mut out = Vec::new();
    for &shape in &[224u32, 448] {
        for &nprop in &[5u32, 100] {
            out.push(Branch::detector_only(shape, nprop));
            for tracker in [TrackerKind::MedianFlow, TrackerKind::Csrt] {
                out.push(Branch::tracked(shape, nprop, tracker, 8, 4));
                out.push(Branch::tracked(shape, nprop, tracker, 20, 4));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn default_catalog_has_272_branches() {
        assert_eq!(default_catalog().len(), 272);
    }

    #[test]
    fn catalog_keys_are_unique() {
        let cat = default_catalog();
        let keys: BTreeSet<u64> = cat.iter().map(|b| b.key()).collect();
        assert_eq!(keys.len(), cat.len());
    }

    #[test]
    fn small_catalog_keys_are_unique() {
        let cat = small_catalog();
        let keys: BTreeSet<u64> = cat.iter().map(|b| b.key()).collect();
        assert_eq!(keys.len(), cat.len());
    }

    #[test]
    fn detector_only_branch_has_no_tracker() {
        let b = Branch::detector_only(448, 20);
        assert!(b.tracker.is_none());
        assert_eq!(b.gof_size, 1);
    }

    #[test]
    fn names_are_readable() {
        let b = Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4);
        assert_eq!(b.name(), "frcnn-448x20+KCF/si8/ds4");
        assert_eq!(Branch::detector_only(224, 1).name(), "frcnn-224x1");
    }

    #[test]
    #[should_panic(expected = "gof_size >= 2")]
    fn tracked_branch_rejects_gof_one() {
        let _ = Branch::tracked(224, 1, TrackerKind::Kcf, 1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn absurd_shape_rejected() {
        let _ = DetectorConfig::new(4096, 10);
    }
}
