//! Runtime feature extraction with per-frame feature caching.

use std::collections::BTreeMap;

use lr_features::{cpop, hoc, hog, DeepExtractors, FeatureKind, LightFeatures};
use lr_video::raster::{rasterize, DEFAULT_RASTER_SIZE};
use lr_video::{BBox, RgbFrame, Video};

/// Cache key: `(video seed, frame index, feature kind)`.
///
/// Raster-derived feature vectors are pure functions of the video and
/// frame (CPoP is not — it depends on caller-supplied proposal logits —
/// so it is never cached), which means cache hits and misses can change
/// only how much work is done, never a value.
type CacheKey = (u64, u32, FeatureKind);

/// Extracts content features from video frames.
///
/// The raster-derived heavy feature vectors are cached per
/// `(video seed, frame index, kind)` with bounded LRU eviction: when the
/// cache is full, the single least-recently-used entry is evicted, so a
/// working set that fits the bound stays warm even as other streams
/// churn through frames. Rasters are not cached: a miss renders the
/// frame afresh, which costs less than the extraction it feeds.
///
/// Note that *virtual* extraction latencies are charged by the scheduler
/// from the Table 1 cost table, not here; this service only computes the
/// feature values.
///
/// The deep stand-ins' weights are not part of a service: every service
/// extracts through the one process-wide [`DeepExtractors::shared`] copy,
/// so a service is only its cache and costs nothing to build.
#[derive(Debug)]
pub struct FeatureService {
    raster_size: usize,
    cache: BTreeMap<CacheKey, (Vec<f32>, u64)>,
    /// Stamp -> key index over `cache`, one slot per entry, for O(log n)
    /// LRU eviction (see [`Self::evict_to_cap`]).
    lru: BTreeMap<u64, CacheKey>,
    max_cache: usize,
    /// Monotonic access counter stamping cache entries for LRU eviction.
    tick: u64,
}

impl Default for FeatureService {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureService {
    /// Creates a service with the default 64x64 raster.
    pub fn new() -> Self {
        Self::with_raster_size(DEFAULT_RASTER_SIZE)
    }

    /// Creates a service with a custom raster edge length.
    ///
    /// # Panics
    ///
    /// Panics if `raster_size` is below the HOG minimum (16).
    pub fn with_raster_size(raster_size: usize) -> Self {
        assert!(raster_size >= 16, "raster too small: {raster_size}");
        Self {
            raster_size,
            cache: BTreeMap::new(),
            lru: BTreeMap::new(),
            max_cache: 2048,
            tick: 0,
        }
    }

    /// The configured raster edge length.
    pub fn raster_size(&self) -> usize {
        self.raster_size
    }

    /// Evicts least-recently-used entries until an insert fits the bound.
    ///
    /// A hit re-stamps its entry but leaves the entry's index slot at the
    /// older stamp; the slot moves up to the current stamp only when it
    /// reaches the front. Every cached key thus has exactly one slot, at
    /// a stamp no later than its current one, so the first slot whose
    /// stamp is current belongs to the least-recently-used entry.
    fn evict_to_cap(&mut self) {
        while self.cache.len() >= self.max_cache {
            let Some((stamp, oldest)) = self.lru.pop_first() else {
                return;
            };
            match self.cache.get(&oldest) {
                Some(&(_, current)) if current != stamp => {
                    self.lru.insert(current, oldest);
                }
                _ => {
                    self.cache.remove(&oldest);
                }
            }
        }
    }

    /// Marks a key as just-used and returns its cached value, if any.
    fn cache_touch(&mut self, key: &CacheKey) -> Option<&[f32]> {
        self.tick += 1;
        let tick = self.tick;
        self.cache.get_mut(key).map(|entry| {
            entry.1 = tick;
            entry.0.as_slice()
        })
    }

    /// Inserts a freshly computed value (evicting LRU entries if full)
    /// and stamps it as just-used. Callers insert only after a miss, so
    /// the key has no stamp in the index yet.
    fn cache_insert(&mut self, key: CacheKey, value: Vec<f32>) {
        self.evict_to_cap();
        self.tick += 1;
        self.lru.insert(self.tick, key);
        let previous = self.cache.insert(key, (value, self.tick));
        debug_assert!(previous.is_none(), "inserted a cached key");
    }

    /// The light feature vector for a frame, given the boxes the kernel
    /// currently believes in.
    pub fn light(&self, video: &Video, frame_idx: usize, boxes: &[BBox]) -> Vec<f32> {
        let truth = &video.frames[frame_idx];
        LightFeatures::from_boxes(truth.width, truth.height, boxes).to_vec()
    }

    /// Extracts a heavy content feature from a frame.
    ///
    /// CPoP is assembled from detector proposal logits, which the caller
    /// must supply (`proposal_logits`); other features come from the
    /// raster. Returns `None` for [`FeatureKind::CPoP`] without logits and
    /// for [`FeatureKind::Light`] (use [`Self::light`]).
    ///
    /// Raster-derived features are served from the LRU cache when warm;
    /// a miss renders the frame's raster and inserts only the feature.
    /// CPoP is never cached because its value depends on the supplied
    /// logits, not only on `(video, frame)`.
    ///
    /// # Panics
    ///
    /// Panics if a raster-derived feature is asked for a frame that is out
    /// of range.
    pub fn extract_heavy(
        &mut self,
        kind: FeatureKind,
        video: &Video,
        frame_idx: usize,
        proposal_logits: Option<&[Vec<f32>]>,
    ) -> Option<Vec<f32>> {
        let extract: fn(&RgbFrame) -> Vec<f32> = match kind {
            FeatureKind::Light => return None,
            FeatureKind::CPoP => return proposal_logits.map(cpop::cpop_vector),
            FeatureKind::HoC => hoc::extract,
            FeatureKind::Hog => hog::extract,
            FeatureKind::ResNet50 => |raster| DeepExtractors::shared().resnet50(raster),
            FeatureKind::MobileNetV2 => |raster| DeepExtractors::shared().mobilenetv2(raster),
        };
        let key = (video.spec.seed, frame_idx as u32, kind);
        if let Some(v) = self.cache_touch(&key) {
            return Some(v.to_vec());
        }
        let raster = rasterize(&video.frames[frame_idx], &video.style, self.raster_size);
        let value = extract(&raster);
        self.cache_insert(key, value.clone());
        Some(value)
    }

    /// The dimensionality a heavy feature has under this service's raster
    /// size (HOG scales with raster size; others are fixed).
    pub fn feature_dim(&self, kind: FeatureKind) -> usize {
        match kind {
            FeatureKind::Hog => hog::dim_for(self.raster_size),
            other => other.cost().dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::VideoSpec;

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 101,
            width: 640.0,
            height: 480.0,
            num_frames: 12,
        })
    }

    #[test]
    fn hoc_is_cached() {
        let v = video();
        let mut svc = FeatureService::new();
        let a = svc.extract_heavy(FeatureKind::HoC, &v, 3, None);
        let b = svc.extract_heavy(FeatureKind::HoC, &v, 3, None);
        assert_eq!(a, b);
        assert_eq!(svc.cache.len(), 1);
    }

    #[test]
    fn cold_extraction_adds_exactly_one_entry() {
        let v = video();
        let mut svc = FeatureService::with_raster_size(16);
        let logits = vec![vec![0.0f32; 31]; 3];
        for frame in [0, 5] {
            for kind in lr_features::HEAVY_FEATURE_KINDS {
                let before = svc.cache.len();
                let _ = svc.extract_heavy(kind, &v, frame, Some(&logits));
                let added = usize::from(kind != FeatureKind::CPoP);
                assert_eq!(svc.cache.len(), before + added, "{kind:?}, frame {frame}");
            }
        }
        assert_eq!(svc.lru.len(), svc.cache.len());
    }

    #[test]
    fn all_heavy_features_have_expected_dims() {
        let v = video();
        let mut svc = FeatureService::new();
        let logits = vec![vec![0.0f32; 31]; 3];
        for kind in lr_features::HEAVY_FEATURE_KINDS {
            let f = svc
                .extract_heavy(kind, &v, 0, Some(&logits))
                .unwrap_or_else(|| panic!("{kind:?} failed"));
            assert_eq!(f.len(), svc.feature_dim(kind), "{kind:?}");
        }
    }

    #[test]
    fn cpop_without_logits_is_none() {
        let v = video();
        let mut svc = FeatureService::new();
        assert!(svc.extract_heavy(FeatureKind::CPoP, &v, 0, None).is_none());
    }

    #[test]
    fn light_features_reflect_boxes() {
        let v = video();
        let svc = FeatureService::new();
        let empty = svc.light(&v, 0, &[]);
        let boxes = [BBox::new(0.0, 0.0, 64.0, 48.0)];
        let one = svc.light(&v, 0, &boxes);
        assert_eq!(empty.len(), 4);
        assert!(one[2] > empty[2], "object count dimension must grow");
    }

    #[test]
    fn cache_evicts_lru_when_full_instead_of_growing() {
        let v = video();
        let mut svc = FeatureService::new();
        svc.max_cache = 4;
        for i in 0..12 {
            let _ = svc.extract_heavy(FeatureKind::HoC, &v, i, None);
        }
        // Bounded: never exceeds the cap, and only the oldest entries
        // were evicted — the most recent 4 frames are still warm.
        assert_eq!(svc.cache.len(), 4);
        for i in 8..12 {
            assert!(
                svc.cache
                    .contains_key(&(v.spec.seed, i as u32, FeatureKind::HoC)),
                "frame {i} should still be cached"
            );
        }
    }

    #[test]
    fn lru_keeps_reused_entries_warm() {
        let v = video();
        let mut svc = FeatureService::new();
        svc.max_cache = 3;
        let mut hoc = |frame| svc.extract_heavy(FeatureKind::HoC, &v, frame, None);
        let _ = hoc(0);
        let _ = hoc(1);
        let _ = hoc(2);
        // Re-touch frame 0 so frame 1 becomes the LRU entry.
        let _ = hoc(0);
        let _ = hoc(3);
        let cached = |frame| {
            svc.cache
                .contains_key(&(v.spec.seed, frame, FeatureKind::HoC))
        };
        assert!(cached(0));
        assert!(!cached(1));
        assert!(cached(3));
    }

    #[test]
    fn heavy_features_are_cached_per_kind() {
        let v = video();
        let mut svc = FeatureService::new();
        let a = svc.extract_heavy(FeatureKind::HoC, &v, 0, None).unwrap();
        assert!(svc.cache.contains_key(&(v.spec.seed, 0, FeatureKind::HoC)));
        let b = svc.extract_heavy(FeatureKind::HoC, &v, 0, None).unwrap();
        assert_eq!(a, b, "cache hit must return the identical vector");
        // CPoP depends on caller-supplied logits and must never be cached.
        let logits = vec![vec![0.0f32; 31]; 3];
        let _ = svc.extract_heavy(FeatureKind::CPoP, &v, 0, Some(&logits));
        assert!(!svc.cache.contains_key(&(v.spec.seed, 0, FeatureKind::CPoP)));
    }

    #[test]
    fn services_share_one_copy_of_the_deep_weights() {
        // A service holds no weights: `extract_heavy` reads the deep
        // stand-ins from `DeepExtractors::shared()`, so two services
        // agree on every deep feature.
        let v = video();
        let mut a = FeatureService::new();
        let mut b = FeatureService::new();
        let x = a.extract_heavy(FeatureKind::ResNet50, &v, 0, None).unwrap();
        let y = b.extract_heavy(FeatureKind::ResNet50, &v, 0, None).unwrap();
        assert_eq!(x, y);
    }

    /// The LRU as it was specified before the stamp index: stamps in a
    /// key map, eviction by a linear scan for the smallest stamp.
    struct LinearScanLru {
        cap: usize,
        tick: u64,
        map: BTreeMap<CacheKey, u64>,
    }

    impl LinearScanLru {
        fn touch(&mut self, key: CacheKey) -> bool {
            self.tick += 1;
            match self.map.get_mut(&key) {
                Some(stamp) => {
                    *stamp = self.tick;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, key: CacheKey) {
            while self.map.len() >= self.cap {
                let oldest = *self.map.iter().min_by_key(|(_, s)| **s).unwrap().0;
                self.map.remove(&oldest);
            }
            self.tick += 1;
            self.map.insert(key, self.tick);
        }

        fn heavy(&mut self, kind: FeatureKind, seed: u64, frame: u32) {
            if matches!(kind, FeatureKind::Light | FeatureKind::CPoP) {
                return;
            }
            let key = (seed, frame, kind);
            if !self.touch(key) {
                self.insert(key);
            }
        }
    }

    #[test]
    fn indexed_lru_evicts_like_the_linear_scan() {
        use rand::{Rng, SeedableRng};
        let videos: Vec<Video> = [101, 202]
            .iter()
            .map(|&seed| {
                Video::generate(VideoSpec {
                    seed,
                    ..video().spec
                })
            })
            .collect();
        let logits = vec![vec![0.0f32; 31]; 2];
        for trace_seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(trace_seed);
            let cap = rng.gen_range(1..=6usize);
            // A 16-pixel raster keeps even the conv stand-ins cheap.
            let mut svc = FeatureService::with_raster_size(16);
            svc.max_cache = cap;
            let mut model = LinearScanLru {
                cap,
                tick: 0,
                map: BTreeMap::new(),
            };
            for step in 0..200 {
                let v = &videos[rng.gen_range(0..videos.len())];
                let frame = rng.gen_range(0..v.len());
                let kinds = lr_features::HEAVY_FEATURE_KINDS;
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let _ = svc.extract_heavy(kind, v, frame, Some(&logits));
                model.heavy(kind, v.spec.seed, frame as u32);
                let resident: Vec<_> = svc.cache.keys().copied().collect();
                let expected: Vec<_> = model.map.keys().copied().collect();
                assert_eq!(resident, expected, "trace {trace_seed}, step {step}");
                assert_eq!(svc.lru.len(), svc.cache.len());
            }
        }
    }
}
