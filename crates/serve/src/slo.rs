//! Per-stream SLO classes and stream specifications.

use lr_video::VideoSpec;

/// Service class of a stream: its latency SLO, its scheduling priority,
/// and whether the admission controller may degrade it under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Frame-rate-critical (33.3 ms, i.e. 30 fps): highest priority,
    /// never degraded — admitted at full quality or not at all.
    Gold,
    /// Interactive (50 ms): may be degraded instead of rejected.
    Silver,
    /// Best-effort analytics (100 ms): lowest priority, degradable.
    Bronze,
}

impl SloClass {
    /// The per-frame latency SLO in milliseconds (a P95 target, as in
    /// the paper).
    pub fn slo_ms(self) -> f64 {
        match self {
            SloClass::Gold => 33.3,
            SloClass::Silver => 50.0,
            SloClass::Bronze => 100.0,
        }
    }

    /// The stream's frame-arrival period in milliseconds. The SLO *is*
    /// the frame interval — each frame must finish before the next one
    /// arrives (Gold is a 30 fps camera, Silver 20 fps, Bronze 10 fps) —
    /// so the dispatcher paces a stream to this period and a stream's
    /// steady-state GPU demand fraction is `gpu_ms_per_frame / slo_ms`,
    /// the same currency the admission controller books.
    pub fn frame_period_ms(self) -> f64 {
        self.slo_ms()
    }

    /// Dispatch priority (higher runs sooner when streams are tied).
    pub(crate) fn priority(self) -> u8 {
        match self {
            SloClass::Gold => 2,
            SloClass::Silver => 1,
            SloClass::Bronze => 0,
        }
    }

    /// Whether the admission controller may admit this stream in a
    /// degraded mode (tightened scheduler headroom: cheaper tracker
    /// branches, longer GoFs) instead of rejecting it.
    pub(crate) fn degradable(self) -> bool {
        !matches!(self, SloClass::Gold)
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Gold => "gold",
            SloClass::Silver => "silver",
            SloClass::Bronze => "bronze",
        }
    }
}

/// One offered stream: a name, a playlist of videos, and an SLO class.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Human-readable stream name (shows up in the report).
    pub name: String,
    /// The videos this stream plays, in order.
    pub videos: Vec<VideoSpec>,
    /// Service class.
    pub class: SloClass,
}

impl StreamSpec {
    /// A synthetic camera stream: one generated video of `num_frames`
    /// frames, deterministic in `id`.
    pub fn synthetic(id: u32, class: SloClass, num_frames: usize) -> Self {
        Self {
            name: format!("cam-{id:02}"),
            videos: vec![VideoSpec {
                id: 9_000 + id,
                seed: 0xCA3E_0000 + id as u64,
                width: 640.0,
                height: 480.0,
                num_frames,
            }],
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_order_by_strictness() {
        assert!(SloClass::Gold.slo_ms() < SloClass::Silver.slo_ms());
        assert!(SloClass::Silver.slo_ms() < SloClass::Bronze.slo_ms());
        assert!(SloClass::Gold.priority() > SloClass::Bronze.priority());
        assert!(!SloClass::Gold.degradable());
        assert!(SloClass::Silver.degradable());
    }

    #[test]
    fn synthetic_streams_are_deterministic() {
        let a = StreamSpec::synthetic(3, SloClass::Silver, 64);
        let b = StreamSpec::synthetic(3, SloClass::Silver, 64);
        assert_eq!(a.videos[0].seed, b.videos[0].seed);
        assert_eq!(a.name, "cam-03");
    }
}
