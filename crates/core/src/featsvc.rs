//! Runtime feature extraction with a byte-budgeted per-frame feature
//! cache.
//!
//! The cache is bounded by bytes, not entries: each entry is charged its
//! payload plus a fixed estimate of its bookkeeping. HOG and the deep
//! stand-ins are kept as their `f32` vectors; HoC, a histogram, is kept as
//! its integer bin counts ([`hoc::counts`]), from which a hit rebuilds
//! the vector bit for bit.
//!
//! A miss extracts through `raster_entry`, which offline profiling
//! also calls directly: it extracts each snippet head once, so it has no
//! use for a cache.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::Arc;

use lr_features::{
    cpop, hoc, hog, light, DeepExtractors, FeatureKind, LightFeatures, ALL_FEATURE_KINDS,
};
use lr_kernels::ProposalLogits;
use lr_video::raster::{rasterize, DEFAULT_RASTER_SIZE};
use lr_video::{BBox, Video};

/// Cache key: `(video seed, frame index, feature kind)`.
///
/// Raster-derived feature vectors are pure functions of the video and
/// frame (CPoP is not — it depends on caller-supplied proposal logits —
/// so it is never cached), which means cache hits and misses can change
/// only how much work is done, never a value.
type CacheKey = (u64, u32, FeatureKind);

/// The raster-derived features, the only ones the cache holds.
const CACHED_KINDS: [FeatureKind; 4] = [
    FeatureKind::HoC,
    FeatureKind::Hog,
    FeatureKind::ResNet50,
    FeatureKind::MobileNetV2,
];

/// The byte budget is this many entries of the widest cached feature at
/// the service's raster size, so at least this many of the most recently
/// used keys are resident whatever their kinds.
const BUDGET_ENTRIES: usize = 2048;

/// A heavy feature's dimensionality at a raster size (HOG scales with
/// raster size; others are fixed).
fn dim_at(kind: FeatureKind, raster_size: usize) -> usize {
    match kind {
        FeatureKind::Hog => hog::dim_for(raster_size),
        other => other.cost().dim,
    }
}

/// Bookkeeping bytes charged to every entry on top of its payload: its
/// slots in the cache map and in the LRU index, doubled for the B-trees'
/// partly filled nodes, and an allocator header on each of its (at most
/// two) heap blocks.
const ENTRY_OVERHEAD_BYTES: usize =
    2 * (size_of::<(CacheKey, (Entry, u64))>() + size_of::<(u64, CacheKey)>()) + 2 * 16;

/// Bytes charged to an entry of the widest cached feature at a raster
/// size: HOG's 1,764 floats at 64x64 and the overhead. No entry is
/// charged more.
fn widest_entry_bytes(raster_size: usize) -> usize {
    let widest = CACHED_KINDS
        .iter()
        .map(|&kind| dim_at(kind, raster_size))
        .fold(0, usize::max);
    widest * size_of::<f32>() + ENTRY_OVERHEAD_BYTES
}

/// A HoC vector kept as its bin counts; every value of the vector is
/// `count * (1 / pixels)`, so [`Self::decode_into`] rebuilds it bit for
/// bit.
///
/// Only the occupied bins are stored: a bitmap of the bins that hold a
/// pixel, then each of their counts in one saturating byte, in bin
/// order. The few bins that hold 255 pixels or more are listed again with
/// their full count. A 64x64 frame occupies about 470 of the 768 bins,
/// and has at most 16 full bins per channel, so an entry is about 0.6 KB
/// instead of the 3 KB of the vector.
#[derive(Debug)]
pub(crate) struct HocCounts {
    /// The occupancy bitmap (bin `i` is bit `i % 8` of byte `i / 8`),
    /// then the occupied bins' counts saturated at 255, channel-major.
    packed: Box<[u8]>,
    /// `(bin, count)` for every bin whose count is 255 or more.
    high: Box<[(u16, u32)]>,
}

/// Bytes of [`HocCounts`]' occupancy bitmap.
const HOC_BITMAP_BYTES: usize = hoc::DIM.div_ceil(8);

impl HocCounts {
    fn encode(counts: &hoc::Counts) -> Self {
        const SATURATED: u32 = u8::MAX as u32;
        let occupied = counts.iter().flatten().filter(|&&count| count > 0).count();
        // Sized exactly, so each buffer is allocated once and never shrunk.
        let mut packed = vec![0u8; HOC_BITMAP_BYTES];
        packed.reserve_exact(occupied);
        for (bin, &count) in counts.iter().flatten().enumerate() {
            if count > 0 {
                packed[bin / 8] |= 1 << (bin % 8);
                packed.push(count.min(SATURATED) as u8);
            }
        }
        let full = counts.iter().flatten().filter(|&&count| count >= SATURATED);
        let mut high = Vec::with_capacity(full.count());
        high.extend(
            counts
                .iter()
                .flatten()
                .enumerate()
                .filter(|&(_, &count)| count >= SATURATED)
                .map(|(bin, &count)| (bin as u16, count)),
        );
        Self {
            packed: packed.into_boxed_slice(),
            high: high.into_boxed_slice(),
        }
    }

    /// Writes the HoC vector of a frame of `pixels` pixels into `out`,
    /// exactly as [`hoc::from_counts`] builds it from the full counts: an
    /// empty bin's `0 * weight` is `+0.0`, which the fill writes.
    fn decode_into(&self, pixels: usize, out: &mut Vec<f32>) {
        let weight = hoc::pixel_weight(pixels);
        out.clear();
        out.resize(hoc::DIM, 0.0);
        let (bitmap, counts) = self.packed.split_at(HOC_BITMAP_BYTES);
        let mut next = 0;
        for (byte_idx, &byte) in bitmap.iter().enumerate() {
            let mut bits = byte;
            while bits != 0 {
                out[byte_idx * 8 + bits.trailing_zeros() as usize] =
                    f32::from(counts[next]) * weight;
                next += 1;
                bits &= bits - 1;
            }
        }
        for &(bin, count) in self.high.iter() {
            out[usize::from(bin)] = count as f32 * weight;
        }
    }

    /// Payload bytes: the bitmap, the counts and the list.
    fn payload_bytes(&self) -> usize {
        size_of_val(&*self.packed) + size_of_val(&*self.high)
    }
}

/// A raster-derived feature as the cache keeps it.
#[derive(Debug)]
pub(crate) enum Entry {
    /// HoC, as its bin counts.
    HoC(HocCounts),
    /// HOG and the deep stand-ins, as the vector itself.
    Dense(Vec<f32>),
}

impl Entry {
    /// The feature vector, for a raster of `pixels` pixels.
    pub(crate) fn decode(&self, pixels: usize) -> Vec<f32> {
        let mut vector = Vec::new();
        self.decode_into(pixels, &mut vector);
        vector
    }

    /// Writes [`Entry::decode`] into `out`, reusing its buffer.
    fn decode_into(&self, pixels: usize, out: &mut Vec<f32>) {
        match self {
            Entry::HoC(counts) => counts.decode_into(pixels, out),
            Entry::Dense(vector) => {
                out.clear();
                out.extend_from_slice(vector);
            }
        }
    }

    /// The bytes this entry counts against the budget: its payload and
    /// [`ENTRY_OVERHEAD_BYTES`].
    fn bytes(&self) -> usize {
        let payload = match self {
            Entry::HoC(counts) => counts.payload_bytes(),
            Entry::Dense(vector) => size_of_val(vector.as_slice()),
        };
        payload + ENTRY_OVERHEAD_BYTES
    }
}

/// A raster-derived feature of frame `frame_idx` of `video`: the frame
/// rendered at `raster_size` and the feature extracted from it, as the
/// cache keeps it. `None` for the features that do not come from the
/// raster (light and CPoP), which renders nothing.
///
/// The deep stand-ins extract through `deep`, which takes a handle on
/// [`DeepExtractors::shared`] on the first ResNet50 or MobileNetV2
/// extraction and keeps it; HoC and HOG leave it as it is.
///
/// # Panics
///
/// Panics if `frame_idx` is out of range.
pub(crate) fn raster_entry(
    kind: FeatureKind,
    video: &Video,
    frame_idx: usize,
    raster_size: usize,
    deep: &mut Option<Arc<DeepExtractors>>,
) -> Option<Entry> {
    let raster = || rasterize(&video.frames[frame_idx], &video.style, raster_size);
    Some(match kind {
        FeatureKind::Light | FeatureKind::CPoP => return None,
        FeatureKind::HoC => Entry::HoC(HocCounts::encode(&hoc::counts(&raster()))),
        FeatureKind::Hog => Entry::Dense(hog::extract(&raster())),
        FeatureKind::ResNet50 => Entry::Dense(
            deep.get_or_insert_with(DeepExtractors::shared)
                .resnet50(&raster()),
        ),
        FeatureKind::MobileNetV2 => Entry::Dense(
            deep.get_or_insert_with(DeepExtractors::shared)
                .mobilenetv2(&raster()),
        ),
    })
}

/// One feature kind's cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that rendered the raster and extracted the feature.
    pub misses: u64,
    /// Entries dropped to make room for others.
    pub evictions: u64,
}

/// A snapshot of a [`FeatureService`]'s cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counters indexed by `FeatureKind as usize`.
    kinds: [KindCacheStats; ALL_FEATURE_KINDS.len()],
    /// Bytes charged to the resident entries: payload and bookkeeping.
    pub resident_bytes: usize,
    /// The most bytes the resident entries are charged.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// One kind's counters. Light and CPoP are never cached, so theirs
    /// stay zero.
    pub fn kind(&self, kind: FeatureKind) -> KindCacheStats {
        self.kinds[kind as usize]
    }

    fn kind_mut(&mut self, kind: FeatureKind) -> &mut KindCacheStats {
        &mut self.kinds[kind as usize]
    }
}

/// Extracts content features from video frames.
///
/// The raster-derived heavy features are cached per `(video seed, frame
/// index, kind)` under a byte budget with LRU eviction: an insert evicts
/// least-recently-used entries until it fits, so a working set that fits
/// the budget stays warm even as other streams churn through frames.
/// Each entry is charged its payload plus a fixed bookkeeping estimate.
/// The budget is 2,048 entries of the widest raster-derived feature at
/// the service's raster size (HOG's 1,764 floats at 64x64, about
/// 14.2 MiB with the bookkeeping), so the 2,048 most recently used keys
/// are always resident. HoC entries are kept as their bin counts, about
/// 1 KB each at 64x64 with the bookkeeping, so about 15,000 of them fit.
/// [`Self::cache_stats`] reads the per-kind hit, miss and eviction
/// counters and the resident bytes.
///
/// Rasters are not cached: a miss renders the frame afresh, which costs
/// less than the extraction it feeds.
///
/// Note that *virtual* extraction latencies are charged by the scheduler
/// from the Table 1 cost table, not here; this service only computes the
/// feature values.
///
/// The deep stand-ins' weights are shared, not copied: a service takes a
/// handle on [`DeepExtractors::shared`] at its first ResNet50 or
/// MobileNetV2 miss and keeps it for its lifetime, so every live service
/// extracts through one copy. A service that never extracts a deep
/// feature holds none, and costs nothing to build.
#[derive(Debug)]
pub struct FeatureService {
    raster_size: usize,
    /// The deep stand-ins, from this service's first deep miss on.
    deep: Option<Arc<DeepExtractors>>,
    cache: BTreeMap<CacheKey, (Entry, u64)>,
    /// Stamp -> key index over `cache`, one slot per entry, for O(log n)
    /// LRU eviction (see [`Self::make_room`]).
    lru: BTreeMap<u64, CacheKey>,
    /// Counters, resident bytes and the byte budget.
    stats: CacheStats,
    /// Monotonic request counter stamping cache entries for LRU eviction.
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
            deep: None,
            cache: BTreeMap::new(),
            lru: BTreeMap::new(),
            stats: CacheStats {
                budget_bytes: BUDGET_ENTRIES * widest_entry_bytes(raster_size),
                ..CacheStats::default()
            },
            tick: 0,
        }
    }

    /// The configured raster edge length.
    pub fn raster_size(&self) -> usize {
        self.raster_size
    }

    /// The cache's counters: hits, misses and evictions per feature kind,
    /// and the bytes charged to the resident entries against the budget.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Evicts least-recently-used entries until `bytes` more fit the
    /// budget.
    ///
    /// A hit re-stamps its entry but leaves the entry's index slot at the
    /// older stamp; the slot moves up to the current stamp only when it
    /// reaches the front. Every cached key thus has exactly one slot, at
    /// a stamp no later than its current one, so the first slot whose
    /// stamp is current belongs to the least-recently-used entry.
    ///
    /// Eviction stops as soon as the insert fits, and no entry is wider
    /// than a budget entry, so the `BUDGET_ENTRIES - 1` most recently used
    /// keys are never evicted (LRU inclusion).
    fn make_room(&mut self, bytes: usize) {
        while self.stats.resident_bytes + bytes > self.stats.budget_bytes {
            let Some((stamp, oldest)) = self.lru.pop_first() else {
                return;
            };
            match self.cache.get(&oldest).map(|&(_, current)| current) {
                Some(current) if current != stamp => {
                    self.lru.insert(current, oldest);
                }
                _ => {
                    if let Some((entry, _)) = self.cache.remove(&oldest) {
                        self.stats.resident_bytes -= entry.bytes();
                        self.stats.kind_mut(oldest.2).evictions += 1;
                    }
                }
            }
        }
    }

    /// Inserts a freshly extracted entry (evicting LRU entries if the
    /// budget is full), stamped with the current request. Callers insert
    /// only after a miss, so the key has no stamp in the index yet.
    fn cache_insert(&mut self, key: CacheKey, entry: Entry) {
        let bytes = entry.bytes();
        debug_assert!(bytes <= widest_entry_bytes(self.raster_size));
        self.make_room(bytes);
        self.lru.insert(self.tick, key);
        self.stats.resident_bytes += bytes;
        let previous = self.cache.insert(key, (entry, self.tick));
        debug_assert!(previous.is_none(), "inserted a cached key");
    }

    /// The light feature vector for a frame, given the boxes the kernel
    /// currently believes in.
    pub fn light(&self, video: &Video, frame_idx: usize, boxes: &[BBox]) -> Vec<f32> {
        self.light_array(video, frame_idx, boxes).to_vec()
    }

    /// [`Self::light`] as a fixed-width array.
    pub(crate) fn light_array(
        &self,
        video: &Video,
        frame_idx: usize,
        boxes: &[BBox],
    ) -> [f32; light::DIM] {
        let truth = &video.frames[frame_idx];
        LightFeatures::from_boxes(truth.width, truth.height, boxes).to_array()
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
        proposal_logits: Option<&[ProposalLogits]>,
    ) -> Option<Vec<f32>> {
        let mut value = Vec::new();
        self.extract_heavy_into(kind, video, frame_idx, proposal_logits, &mut value)
            .then_some(value)
    }

    /// [`Self::extract_heavy`] into `out`, reusing its buffer: true when
    /// `out` holds the feature, false where `extract_heavy` returns
    /// `None` (light, and CPoP without logits), which leaves `out` as it
    /// was.
    pub(crate) fn extract_heavy_into(
        &mut self,
        kind: FeatureKind,
        video: &Video,
        frame_idx: usize,
        proposal_logits: Option<&[ProposalLogits]>,
        out: &mut Vec<f32>,
    ) -> bool {
        match (kind, proposal_logits) {
            (FeatureKind::Light, _) | (FeatureKind::CPoP, None) => return false,
            (FeatureKind::CPoP, Some(logits)) => {
                *out = cpop::cpop_vector(logits);
                return true;
            }
            _ => {}
        }
        let pixels = self.raster_size * self.raster_size;
        let key = (video.spec.seed, frame_idx as u32, kind);
        self.tick += 1;
        if let Some((entry, stamp)) = self.cache.get_mut(&key) {
            *stamp = self.tick;
            self.stats.kind_mut(kind).hits += 1;
            entry.decode_into(pixels, out);
            return true;
        }
        self.stats.kind_mut(kind).misses += 1;
        let Some(entry) = raster_entry(kind, video, frame_idx, self.raster_size, &mut self.deep)
        else {
            return false;
        };
        entry.decode_into(pixels, out);
        self.cache_insert(key, entry);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::{RgbFrame, VideoSpec};

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 101,
            width: 640.0,
            height: 480.0,
            num_frames: 12,
        })
    }

    impl HocCounts {
        /// The decoded vector, written over a buffer that holds stale
        /// values of another length, as a reused buffer would.
        fn decode(&self, pixels: usize) -> Vec<f32> {
            let mut vector = vec![f32::NAN; 7];
            self.decode_into(pixels, &mut vector);
            vector
        }
    }

    fn cached(svc: &FeatureService, v: &Video, frame: usize, kind: FeatureKind) -> bool {
        svc.cache.contains_key(&(v.spec.seed, frame as u32, kind))
    }

    fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, bin {i}: {x} vs {y}");
        }
    }

    /// The bytes charged to one HOG entry at a 16-pixel raster, where a
    /// HOG vector has 36 floats: tests size budgets in these so every
    /// entry takes the same room.
    const HOG16_BYTES: usize = 36 * size_of::<f32>() + ENTRY_OVERHEAD_BYTES;

    #[test]
    fn hoc_is_cached() {
        let v = video();
        let mut svc = FeatureService::new();
        let a = svc.extract_heavy(FeatureKind::HoC, &v, 3, None);
        let b = svc.extract_heavy(FeatureKind::HoC, &v, 3, None);
        assert_eq!(a, b);
        assert_eq!(svc.cache.len(), 1);
        let hoc = svc.cache_stats().kind(FeatureKind::HoC);
        assert_eq!((hoc.hits, hoc.misses, hoc.evictions), (1, 1, 0));
    }

    #[test]
    fn cold_extraction_adds_exactly_one_entry() {
        let v = video();
        let mut svc = FeatureService::with_raster_size(16);
        let logits = vec![[0.0f32; 31]; 3];
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
        let logits = vec![[0.0f32; 31]; 3];
        for kind in lr_features::HEAVY_FEATURE_KINDS {
            let f = svc
                .extract_heavy(kind, &v, 0, Some(&logits))
                .unwrap_or_else(|| panic!("{kind:?} failed"));
            assert_eq!(f.len(), dim_at(kind, svc.raster_size), "{kind:?}");
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
    fn budget_is_2048_of_the_widest_entry() {
        assert_eq!(
            hog::dim_for(16) * size_of::<f32>() + ENTRY_OVERHEAD_BYTES,
            HOG16_BYTES
        );
        // HOG at 64x64; MobileNetV2's 1,280 floats at 16x16.
        let budget = |size| FeatureService::with_raster_size(size).stats.budget_bytes;
        assert_eq!(budget(64), 2048 * (1764 * 4 + ENTRY_OVERHEAD_BYTES));
        assert_eq!(budget(16), 2048 * (1280 * 4 + ENTRY_OVERHEAD_BYTES));
    }

    #[test]
    fn cache_evicts_lru_when_full_instead_of_growing() {
        let v = video();
        let mut svc = FeatureService::with_raster_size(16);
        svc.stats.budget_bytes = 4 * HOG16_BYTES;
        for i in 0..12 {
            let _ = svc.extract_heavy(FeatureKind::Hog, &v, i, None);
        }
        // Bounded: never exceeds the budget, and only the oldest entries
        // were evicted — the most recent 4 frames are still warm.
        let stats = svc.cache_stats();
        assert_eq!(svc.cache.len(), 4);
        assert_eq!(stats.resident_bytes, 4 * HOG16_BYTES);
        assert_eq!(stats.kind(FeatureKind::Hog).evictions, 8);
        for i in 8..12 {
            assert!(
                cached(&svc, &v, i, FeatureKind::Hog),
                "frame {i} should still be cached"
            );
        }
    }

    #[test]
    fn lru_keeps_reused_entries_warm() {
        let v = video();
        let mut svc = FeatureService::with_raster_size(16);
        svc.stats.budget_bytes = 3 * HOG16_BYTES;
        let mut hog = |frame| svc.extract_heavy(FeatureKind::Hog, &v, frame, None);
        let _ = hog(0);
        let _ = hog(1);
        let _ = hog(2);
        // Re-touch frame 0 so frame 1 becomes the LRU entry.
        let _ = hog(0);
        let _ = hog(3);
        assert!(cached(&svc, &v, 0, FeatureKind::Hog));
        assert!(!cached(&svc, &v, 1, FeatureKind::Hog));
        assert!(cached(&svc, &v, 3, FeatureKind::Hog));
    }

    #[test]
    fn heavy_features_are_cached_per_kind() {
        let v = video();
        let mut svc = FeatureService::new();
        let a = svc.extract_heavy(FeatureKind::HoC, &v, 0, None).unwrap();
        assert!(cached(&svc, &v, 0, FeatureKind::HoC));
        let b = svc.extract_heavy(FeatureKind::HoC, &v, 0, None).unwrap();
        assert_eq!(a, b, "cache hit must return the identical vector");
        // CPoP depends on caller-supplied logits and must never be cached.
        let logits = vec![[0.0f32; 31]; 3];
        let _ = svc.extract_heavy(FeatureKind::CPoP, &v, 0, Some(&logits));
        assert!(!cached(&svc, &v, 0, FeatureKind::CPoP));
        assert_eq!(
            svc.cache_stats().kind(FeatureKind::CPoP),
            KindCacheStats::default()
        );
    }

    #[test]
    fn services_share_one_copy_of_the_deep_weights() {
        // A service holds no weights of its own: `extract_heavy` reads
        // the deep stand-ins through a handle on `DeepExtractors::shared()`,
        // so two services agree on every deep feature.
        let v = video();
        let mut a = FeatureService::new();
        let mut b = FeatureService::new();
        let x = a.extract_heavy(FeatureKind::ResNet50, &v, 0, None).unwrap();
        let y = b.extract_heavy(FeatureKind::ResNet50, &v, 0, None).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn hoc_counts_entry_round_trips_bit_for_bit() {
        // Real rasters, through the codec and through a miss and a hit.
        for seed in 0..4u64 {
            let v = Video::generate(VideoSpec {
                id: seed as u32,
                seed: 900 + seed,
                width: 640.0,
                height: 480.0,
                num_frames: 12,
            });
            for size in [16, 64, 300] {
                let mut svc = FeatureService::with_raster_size(size);
                for frame in (0..v.len()).step_by(5) {
                    let raster = rasterize(&v.frames[frame], &v.style, size);
                    let counts = hoc::counts(&raster);
                    let entry = HocCounts::encode(&counts);
                    let dense = hoc::extract(&raster);
                    let what = format!("video {seed}, frame {frame}, size {size}");
                    assert_same_bits(&entry.decode(size * size), &dense, &what);
                    let charged = Entry::HoC(entry).bytes();
                    assert!(charged <= widest_entry_bytes(size), "{what}");
                    for pass in ["miss", "hit"] {
                        let got = svc
                            .extract_heavy(FeatureKind::HoC, &v, frame, None)
                            .unwrap();
                        assert_same_bits(&got, &dense, &format!("{what}, {pass}"));
                    }
                }
            }
        }

        // Counts on both sides of the byte's saturation and of u16.
        let edges = [0, 1, 254, 255, 256, 4096, 65_535, 65_536, 1 << 24];
        let mut counts: hoc::Counts = [[0; hoc::BINS]; 3];
        for (i, count) in counts.iter_mut().flatten().enumerate() {
            *count = edges[i % edges.len()];
        }
        let entry = HocCounts::encode(&counts);
        let saturated = counts.iter().flatten().filter(|&&c| c >= 255).count();
        assert_eq!(entry.high.len(), saturated);
        let occupied = counts.iter().flatten().filter(|&&c| c > 0).count();
        assert_eq!(
            entry.payload_bytes(),
            HOC_BITMAP_BYTES + occupied + 8 * saturated
        );
        for pixels in [4096, 70_000, 1 << 24] {
            let what = format!("edge counts over {pixels} pixels");
            assert_same_bits(
                &entry.decode(pixels),
                &hoc::from_counts(&counts, pixels),
                &what,
            );
        }

        // A raster wider than 255 whose one colour puts 66,049 pixels in
        // one bin, past what 16 bits hold.
        let black = RgbFrame::new(257, 257);
        let counts = hoc::counts(&black);
        assert_eq!(counts[0][0], 257 * 257);
        let entry = HocCounts::encode(&counts);
        assert_eq!(entry.high.len(), 3);
        assert_same_bits(
            &entry.decode(257 * 257),
            &hoc::extract(&black),
            "black 257x257",
        );
    }

    /// The reference LRU, capped at `cap` entries of any size: stamps in a
    /// key map, eviction by a linear scan for the smallest stamp. It also
    /// remembers every cacheable key's last use.
    struct LinearScanLru {
        cap: usize,
        tick: u64,
        map: BTreeMap<CacheKey, u64>,
        last_use: BTreeMap<CacheKey, u64>,
        misses: u64,
    }

    impl LinearScanLru {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                tick: 0,
                map: BTreeMap::new(),
                last_use: BTreeMap::new(),
                misses: 0,
            }
        }

        fn heavy(&mut self, kind: FeatureKind, seed: u64, frame: u32) {
            if matches!(kind, FeatureKind::Light | FeatureKind::CPoP) {
                return;
            }
            let key = (seed, frame, kind);
            self.tick += 1;
            self.last_use.insert(key, self.tick);
            if let Some(stamp) = self.map.get_mut(&key) {
                *stamp = self.tick;
                return;
            }
            self.misses += 1;
            while self.map.len() >= self.cap {
                let oldest = *self.map.iter().min_by_key(|(_, s)| **s).unwrap().0;
                self.map.remove(&oldest);
            }
            self.map.insert(key, self.tick);
        }

        /// The `n` most recently used distinct keys, sorted.
        fn most_recent(&self, n: usize) -> Vec<CacheKey> {
            let mut by_use: Vec<_> = self.last_use.iter().map(|(k, &t)| (t, *k)).collect();
            by_use.sort_unstable_by(|a, b| b.cmp(a));
            let mut keys: Vec<_> = by_use.into_iter().take(n).map(|(_, k)| k).collect();
            keys.sort_unstable();
            keys
        }
    }

    #[test]
    fn indexed_lru_evicts_like_the_linear_scan() {
        // The byte-budgeted service against the entry-capped model on
        // seeded mixed-kind traces: every key the model holds is resident,
        // and the resident keys are exactly the most recently used ones,
        // so the service never misses more often than the model.
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
        let logits = vec![[0.0f32; 31]; 2];
        for (size, steps, traces) in [(16, 200, 8), (64, 60, 6)] {
            for trace_seed in 0..traces {
                let mut rng = rand::rngs::StdRng::seed_from_u64(trace_seed);
                let cap = rng.gen_range(1..=6usize);
                let mut svc = FeatureService::with_raster_size(size);
                svc.stats.budget_bytes = cap * widest_entry_bytes(size);
                let mut model = LinearScanLru::new(cap);
                for step in 0..steps {
                    let v = &videos[rng.gen_range(0..videos.len())];
                    let frame = rng.gen_range(0..v.len());
                    let kinds = lr_features::HEAVY_FEATURE_KINDS;
                    let kind = kinds[rng.gen_range(0..kinds.len())];
                    let _ = svc.extract_heavy(kind, v, frame, Some(&logits));
                    model.heavy(kind, v.spec.seed, frame as u32);
                    let what = format!("size {size}, trace {trace_seed}, step {step}");
                    let resident: Vec<_> = svc.cache.keys().copied().collect();
                    for key in model.map.keys() {
                        assert!(svc.cache.contains_key(key), "{what}: {key:?} evicted");
                    }
                    assert_eq!(resident, model.most_recent(resident.len()), "{what}");
                    let bytes: usize = svc.cache.values().map(|(e, _)| e.bytes()).sum();
                    let stats = svc.cache_stats();
                    assert_eq!(stats.resident_bytes, bytes, "{what}");
                    assert!(bytes <= stats.budget_bytes, "{what}");
                    assert_eq!(svc.lru.len(), svc.cache.len());
                }
                let misses: u64 = CACHED_KINDS
                    .iter()
                    .map(|&k| svc.cache_stats().kind(k).misses)
                    .sum();
                assert!(misses <= model.misses, "size {size}, trace {trace_seed}");
            }
        }
    }

    #[test]
    fn a_hoc_working_set_past_2048_entries_misses_only_on_the_first_pass() {
        // About 4,000 distinct HoC frames, each requested once per pass:
        // an entry-capped LRU of 2,048 misses every request of the second
        // pass, and the byte budget holds them all.
        let videos: Vec<Video> = (0..4u64)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i as u32,
                    seed: 500 + i,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 1000,
                })
            })
            .collect();
        let mut svc = FeatureService::new();
        let mut model = LinearScanLru::new(BUDGET_ENTRIES);
        let requests = videos.iter().map(Video::len).sum::<usize>() as u64;
        for pass in 1..=2u64 {
            for v in &videos {
                for frame in 0..v.len() {
                    let _ = svc.extract_heavy(FeatureKind::HoC, v, frame, None);
                    model.heavy(FeatureKind::HoC, v.spec.seed, frame as u32);
                }
            }
            let stats = svc.cache_stats();
            let hoc = stats.kind(FeatureKind::HoC);
            assert_eq!(hoc.misses, requests, "pass {pass}");
            assert_eq!(hoc.hits, (pass - 1) * requests, "pass {pass}");
            assert_eq!(hoc.evictions, 0, "pass {pass}");
            assert_eq!(model.misses, pass * requests, "pass {pass}");
            assert!(stats.resident_bytes <= stats.budget_bytes);
        }
    }
}
