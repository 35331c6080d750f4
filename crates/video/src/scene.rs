//! Scene dynamics: objects spawning, moving, and despawning under a
//! regime-driven stochastic process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::classes::{ObjectClass, NUM_CLASSES};
use crate::geometry::BBox;
use crate::object::GtObject;
use crate::regime::{Regime, RegimeChain};
use crate::video::FrameTruth;

/// Mean regime dwell time in frames.
const MEAN_REGIME_DWELL: f32 = 180.0;

/// Hard upper bound on concurrent objects.
const MAX_OBJECTS: usize = 12;

/// Static configuration of a scene.
#[derive(Debug, Clone)]
pub(crate) struct SceneConfig {
    /// Source frame width in pixels.
    pub width: f32,
    /// Source frame height in pixels.
    pub height: f32,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self {
            width: 1280.0,
            height: 720.0,
        }
    }
}

/// Mutable per-object simulation state.
#[derive(Debug, Clone)]
struct ActiveObject {
    id: u32,
    class: ObjectClass,
    cx: f32,
    cy: f32,
    w: f32,
    h: f32,
    vx: f32,
    vy: f32,
    difficulty: f32,
    /// Phase for the slow size oscillation.
    size_phase: f32,
    base_w: f32,
    base_h: f32,
}

/// A running scene simulation.
///
/// `Scene` is a deterministic function of its seed: stepping two scenes
/// with identical configs and seeds yields identical frame truths.
#[derive(Debug, Clone)]
pub(crate) struct Scene {
    cfg: SceneConfig,
    rng: StdRng,
    chain: RegimeChain,
    objects: Vec<ActiveObject>,
    /// Each spawned instance's colour jitter, indexed by its id.
    jitter: Vec<[f32; 3]>,
    /// The visible objects of the frame being snapshotted, reused.
    visible: Vec<GtObject>,
    next_id: u32,
    frame_index: u32,
    stream_id: u64,
}

impl Scene {
    /// Creates a scene and pre-populates it with the regime's target
    /// object count so videos do not start empty.
    pub(crate) fn new(cfg: SceneConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = RegimeChain::new(MEAN_REGIME_DWELL, &mut rng);
        let mut scene = Self {
            cfg,
            rng,
            chain,
            objects: Vec::new(),
            jitter: Vec::new(),
            visible: Vec::new(),
            next_id: 0,
            frame_index: 0,
            stream_id: seed,
        };
        let target = scene.chain.current().clutter.target_object_count();
        for _ in 0..target {
            scene.spawn_object();
        }
        scene
    }

    /// The colour jitter of every instance spawned so far, indexed by id.
    pub(crate) fn into_jitter(self) -> Box<[[f32; 3]]> {
        self.jitter.into_boxed_slice()
    }

    /// Advances the simulation by one frame and returns its ground truth.
    pub(crate) fn step(&mut self) -> FrameTruth {
        let regime = self.chain.step(&mut self.rng);
        self.adjust_population(regime);
        self.advance_objects(regime);
        let truth = self.snapshot(regime);
        self.frame_index += 1;
        truth
    }

    /// Spawns or despawns towards the regime's target population.
    fn adjust_population(&mut self, regime: Regime) {
        let target = regime.clutter.target_object_count();
        if self.objects.len() < target && self.rng.gen::<f32>() < 0.15 {
            self.spawn_object();
        } else if self.objects.len() > target && self.rng.gen::<f32>() < 0.08 {
            let idx = self.rng.gen_range(0..self.objects.len());
            self.objects.swap_remove(idx);
        }
        // Rare churn even at the target count, so object identities change.
        if !self.objects.is_empty() && self.rng.gen::<f32>() < 0.005 {
            let idx = self.rng.gen_range(0..self.objects.len());
            self.objects.swap_remove(idx);
            if self.objects.len() < MAX_OBJECTS {
                self.spawn_object();
            }
        }
    }

    fn spawn_object(&mut self) {
        if self.objects.len() >= MAX_OBJECTS {
            return;
        }
        let regime = self.chain.current();
        let diag = (self.cfg.width * self.cfg.width + self.cfg.height * self.cfg.height).sqrt();
        let short = self.cfg.width.min(self.cfg.height);
        // Log-normal-ish size spread about the regime's typical scale.
        let scale = regime.clutter.object_scale() * self.rng.gen_range(0.5..1.8);
        let aspect = self.rng.gen_range(0.6..1.7);
        let w = (scale * short * aspect).clamp(8.0, self.cfg.width * 0.8);
        let h = (scale * short / aspect).clamp(8.0, self.cfg.height * 0.8);
        let speed = regime.motion.speed_scale() * diag * self.rng.gen_range(0.5..1.5);
        let dir = self.rng.gen_range(0.0..std::f32::consts::TAU);
        let id = self.next_id;
        self.next_id += 1;
        // Every seeded video depends on this draw order: class, centre,
        // difficulty, colour jitter, size phase.
        let class = ObjectClass::new(self.rng.gen_range(0..NUM_CLASSES));
        let cx = self.rng.gen_range(w / 2.0..self.cfg.width - w / 2.0);
        let cy = self.rng.gen_range(h / 2.0..self.cfg.height - h / 2.0);
        let difficulty = self.rng.gen_range(0.0..0.7);
        let jitter = [(); 3].map(|()| self.rng.gen_range(-0.12..0.12));
        let size_phase = self.rng.gen_range(0.0..std::f32::consts::TAU);
        self.jitter.push(jitter);
        self.objects.push(ActiveObject {
            id,
            class,
            cx,
            cy,
            w,
            h,
            vx: speed * dir.cos(),
            vy: speed * dir.sin(),
            difficulty,
            size_phase,
            base_w: w,
            base_h: h,
        });
    }

    fn advance_objects(&mut self, regime: Regime) {
        let diag = (self.cfg.width * self.cfg.width + self.cfg.height * self.cfg.height).sqrt();
        let target_speed = regime.motion.speed_scale() * diag;
        for obj in &mut self.objects {
            // Relax speed towards the regime target and jitter direction.
            let speed = (obj.vx * obj.vx + obj.vy * obj.vy).sqrt().max(1e-6);
            let new_speed = speed + 0.1 * (target_speed - speed);
            let angle = obj.vy.atan2(obj.vx) + self.rng.gen_range(-0.25..0.25);
            obj.vx = new_speed * angle.cos();
            obj.vy = new_speed * angle.sin();

            obj.cx += obj.vx;
            obj.cy += obj.vy;

            // Bounce off frame edges.
            if obj.cx < obj.w / 2.0 {
                obj.cx = obj.w / 2.0;
                obj.vx = obj.vx.abs();
            }
            if obj.cx > self.cfg.width - obj.w / 2.0 {
                obj.cx = self.cfg.width - obj.w / 2.0;
                obj.vx = -obj.vx.abs();
            }
            if obj.cy < obj.h / 2.0 {
                obj.cy = obj.h / 2.0;
                obj.vy = obj.vy.abs();
            }
            if obj.cy > self.cfg.height - obj.h / 2.0 {
                obj.cy = self.cfg.height - obj.h / 2.0;
                obj.vy = -obj.vy.abs();
            }

            // Slow apparent-size oscillation (approach/recede).
            obj.size_phase += 0.02;
            let s = 1.0 + 0.2 * obj.size_phase.sin();
            obj.w = obj.base_w * s;
            obj.h = obj.base_h * s;

            // Difficulty wanders slightly.
            obj.difficulty = (obj.difficulty + self.rng.gen_range(-0.01..0.01)).clamp(0.0, 0.95);
        }
    }

    /// The frame's ground truth, its visible objects in a slice allocated
    /// at its exact length.
    fn snapshot(&mut self, regime: Regime) -> FrameTruth {
        let (width, height) = (self.cfg.width, self.cfg.height);
        self.visible.clear();
        self.visible.extend(
            self.objects
                .iter()
                .map(|o| GtObject {
                    id: o.id,
                    class: o.class,
                    bbox: BBox::from_center(o.cx, o.cy, o.w, o.h).clamped(width, height),
                    velocity: (o.vx, o.vy),
                    difficulty: o.difficulty,
                })
                .filter(|o| o.bbox.is_valid()),
        );
        FrameTruth {
            stream_id: self.stream_id,
            frame_index: self.frame_index,
            width,
            height,
            regime,
            objects: self.visible.as_slice().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_is_deterministic_per_seed() {
        let run = || {
            let mut s = Scene::new(SceneConfig::default(), 77);
            (0..50).map(|_| s.step()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.objects, fb.objects);
            assert_eq!(fa.regime, fb.regime);
        }
    }

    #[test]
    fn objects_stay_within_frame() {
        let cfg = SceneConfig::default();
        let (w, h) = (cfg.width, cfg.height);
        let mut s = Scene::new(cfg, 3);
        for _ in 0..500 {
            let frame = s.step();
            for o in &frame.objects {
                assert!(o.bbox.x >= -1e-3 && o.bbox.right() <= w + 1e-3);
                assert!(o.bbox.y >= -1e-3 && o.bbox.bottom() <= h + 1e-3);
            }
        }
    }

    #[test]
    fn population_tracks_regime_target() {
        let mut s = Scene::new(SceneConfig::default(), 11);
        // Run long enough to visit multiple regimes and average counts by
        // clutter level.
        let mut sparse_counts = Vec::new();
        let mut cluttered_counts = Vec::new();
        for _ in 0..4000 {
            let f = s.step();
            match f.regime.clutter {
                crate::regime::ClutterLevel::Sparse => sparse_counts.push(f.objects.len()),
                crate::regime::ClutterLevel::Cluttered => cluttered_counts.push(f.objects.len()),
            }
        }
        if !sparse_counts.is_empty() && !cluttered_counts.is_empty() {
            let mean = |v: &[usize]| v.iter().sum::<usize>() as f32 / v.len() as f32;
            assert!(
                mean(&cluttered_counts) > mean(&sparse_counts),
                "cluttered regimes should carry more objects"
            );
        }
    }

    #[test]
    fn ids_are_unique_within_a_frame() {
        let mut s = Scene::new(SceneConfig::default(), 5);
        for _ in 0..200 {
            let f = s.step();
            let mut ids: Vec<_> = f.objects.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            let n = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), n);
        }
    }

    #[test]
    fn fast_regimes_move_objects_faster() {
        // Compare measured mean speed in slow vs fast regimes.
        let mut s = Scene::new(SceneConfig::default(), 23);
        let mut slow = Vec::new();
        let mut fast = Vec::new();
        for _ in 0..6000 {
            let f = s.step();
            let speeds: Vec<f32> = f.objects.iter().map(|o| o.speed()).collect();
            if speeds.is_empty() {
                continue;
            }
            let mean = speeds.iter().sum::<f32>() / speeds.len() as f32;
            match f.regime.motion {
                crate::regime::MotionLevel::Slow => slow.push(mean),
                crate::regime::MotionLevel::Fast => fast.push(mean),
                _ => {}
            }
        }
        if !slow.is_empty() && !fast.is_empty() {
            let m = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
            assert!(m(&fast) > 2.0 * m(&slow));
        }
    }
}
