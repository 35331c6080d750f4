//! The scheduler's prediction models.
//!
//! - [`AccuracyModel`]: the content-aware accuracy prediction model
//!   `A(b, f)` — a 6-layer MLP per content feature (§4): the input
//!   concatenates the light features and one heavy content feature, the
//!   output is the predicted snippet mAP of every catalog branch. Trained
//!   with MSE + SGD (momentum 0.9) + L2 on the offline records.
//! - [`LatencyModel`]: the per-branch latency model `L0(b, f_L)` — linear
//!   regressions on the light features (re-implementing ApproxDet's
//!   latency predictors), split into detector and tracker components so
//!   the online multiplicative corrections can react to GPU contention
//!   without touching CPU-side predictions.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lr_features::FeatureKind;
use lr_nn::linreg::{fit_ridge, LinearModel};
use lr_nn::{Matrix, Mlp, MlpConfig, Sgd};

use crate::offline::OfflineDataset;

/// Per-dimension standardization fitted on training data.
#[derive(Debug, Clone)]
pub struct Scaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Scaler {
    /// Fits mean/std per dimension.
    ///
    /// # Panics
    ///
    /// Panics on an empty or ragged dataset.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on no data");
        let d = rows[0].len();
        let n = rows.len() as f32;
        let mut mean = vec![0.0f32; d];
        for r in rows {
            assert_eq!(r.len(), d, "ragged rows");
            for (m, &v) in mean.iter_mut().zip(r.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for r in rows {
            for ((s, &v), &m) in var.iter_mut().zip(r.iter()).zip(mean.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        // Floor the std well above machine epsilon: dimensions that are
        // (near-)constant in training would otherwise blow up at inference
        // when a new video activates them (e.g. an unseen HoC bin).
        let std = var.into_iter().map(|s| (s / n).sqrt().max(2e-2)).collect();
        Self { mean, std }
    }

    /// Standardizes one row.
    pub fn transform(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        x.iter()
            .zip(self.mean.iter().zip(self.std.iter()))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// Training hyper-parameters for accuracy models.
#[derive(Debug, Clone)]
pub struct AccuracyModelConfig {
    /// Hidden layer widths (4 hidden layers -> a 6-layer network with the
    /// input projection and output layer, matching §4).
    pub hidden: Vec<usize>,
    /// Training epochs (the paper trains up to 400, converging within
    /// 100).
    pub epochs: usize,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularization coefficient.
    pub weight_decay: f32,
}

impl AccuracyModelConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            hidden: vec![256, 256, 256, 256],
            epochs: 150,
            batch_size: 64,
            learning_rate: 0.005,
            weight_decay: 1e-4,
        }
    }

    /// A lighter configuration for experiments under a compute budget.
    pub fn fast() -> Self {
        Self {
            hidden: vec![96, 96, 96, 96],
            epochs: 200,
            batch_size: 32,
            learning_rate: 0.004,
            weight_decay: 1e-4,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: vec![16, 16, 16, 16],
            epochs: 60,
            batch_size: 8,
            learning_rate: 0.003,
            weight_decay: 1e-4,
        }
    }
}

/// The content-aware accuracy model for one feature kind.
#[derive(Debug, Clone)]
pub struct AccuracyModel {
    kind: FeatureKind,
    scaler: Scaler,
    mlp: Mlp,
    final_train_mse: f32,
}

impl AccuracyModel {
    /// Trains the model for `kind` on the offline dataset.
    ///
    /// For [`FeatureKind::Light`] the input is the 4-d light vector (the
    /// content-agnostic model); otherwise it is light concatenated with
    /// the heavy feature.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or lacks the feature.
    pub fn train(
        kind: FeatureKind,
        dataset: &OfflineDataset,
        cfg: &AccuracyModelConfig,
        seed: u64,
    ) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let inputs: Vec<Vec<f32>> = dataset
            .records
            .iter()
            .map(|r| Self::assemble_input(kind, &r.light, r.heavy.get(&kind).map(|v| v.as_slice())))
            .collect();
        let scaler = Scaler::fit(&inputs);
        let n = inputs.len();
        let in_dim = inputs[0].len();
        let out_dim = dataset.catalog.len();

        let mut x = Vec::with_capacity(n * in_dim);
        for row in &inputs {
            x.extend(scaler.transform(row));
        }
        let mut y = Vec::with_capacity(n * out_dim);
        for r in &dataset.records {
            y.extend_from_slice(&r.branch_map);
        }
        let x = Matrix::from_vec(n, in_dim, x);
        let y = Matrix::from_vec(n, out_dim, y);

        let mut rng = StdRng::seed_from_u64(seed ^ kind_seed(kind));
        // Leaky ReLU hidden layers: with only a few hundred snippets of
        // training data, plain ReLU units die wholesale under SGD and the
        // network collapses to a constant predictor.
        let mlp_cfg = MlpConfig {
            hidden_activation: lr_nn::layers::Activation::LeakyRelu,
            ..MlpConfig::regression(in_dim, &cfg.hidden, out_dim)
        };
        // Train with gradient clipping; if a learning rate still
        // diverges (non-finite loss), retry from a fresh init at a
        // quarter of the rate.
        let mut lr = cfg.learning_rate;
        let mut attempt = 0;
        let (mlp, final_train_mse) = loop {
            let mut mlp = Mlp::new(&mlp_cfg, &mut rng);
            let opt = Sgd::paper(lr, cfg.weight_decay).with_grad_clip(2.0);
            let history = mlp.fit(&x, &y, opt, cfg.epochs, cfg.batch_size, &mut rng);
            let final_mse = history.last().copied().unwrap_or(f32::INFINITY);
            if final_mse.is_finite() || attempt >= 3 {
                break (mlp, final_mse);
            }
            attempt += 1;
            lr *= 0.25;
        };
        Self {
            kind,
            scaler,
            mlp,
            final_train_mse,
        }
    }

    fn assemble_input(kind: FeatureKind, light: &[f32], heavy: Option<&[f32]>) -> Vec<f32> {
        let mut v = light.to_vec();
        if kind != FeatureKind::Light {
            let h = heavy.unwrap_or_else(|| panic!("record lacks {kind:?} feature"));
            v.extend_from_slice(h);
        }
        v
    }

    /// The feature kind this model consumes.
    pub fn kind(&self) -> FeatureKind {
        self.kind
    }

    /// Final training MSE (diagnostics).
    pub fn train_mse(&self) -> f32 {
        self.final_train_mse
    }

    /// Predicts per-branch snippet mAP, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the input widths do not match training.
    pub fn predict(&self, light: &[f32], heavy: Option<&[f32]>) -> Vec<f32> {
        let input = Self::assemble_input(self.kind, light, heavy);
        let scaled = self.scaler.transform(&input);
        self.mlp
            .infer_one(&scaled)
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect()
    }
}

fn kind_seed(kind: FeatureKind) -> u64 {
    match kind {
        FeatureKind::Light => 0x11,
        FeatureKind::HoC => 0x22,
        FeatureKind::Hog => 0x33,
        FeatureKind::ResNet50 => 0x44,
        FeatureKind::CPoP => 0x55,
        FeatureKind::MobileNetV2 => 0x66,
    }
}

/// Per-branch latency regressions split by execution unit.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    det: Vec<LinearModel>,
    trk: Vec<LinearModel>,
}

impl LatencyModel {
    /// Fits per-branch ridge regressions on the light features.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn train(dataset: &OfflineDataset) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let xs: Vec<Vec<f32>> = dataset.records.iter().map(|r| r.light.clone()).collect();
        // Each branch's pair of ridge solves is independent of the
        // others, so fan them out; results come back in branch order.
        let branches: Vec<usize> = (0..dataset.catalog.len()).collect();
        let pool = lr_pool::Pool::from_env();
        let fits = pool.par_map(&branches, |&b| {
            let det_y: Vec<f32> = dataset
                .records
                .iter()
                .map(|r| r.branch_det_ms[b] as f32)
                .collect();
            let trk_y: Vec<f32> = dataset
                .records
                .iter()
                .map(|r| r.branch_trk_ms[b] as f32)
                .collect();
            (
                fit_ridge(&xs, &det_y, 1e-3).expect("ridge solve"),
                fit_ridge(&xs, &trk_y, 1e-3).expect("ridge solve"),
            )
        });
        let (det, trk) = fits.into_iter().unzip();
        Self { det, trk }
    }

    /// Number of branches covered.
    pub fn num_branches(&self) -> usize {
        self.det.len()
    }

    /// Predicted detector and tracker per-frame milliseconds for one
    /// branch (before corrections).
    ///
    /// # Panics
    ///
    /// Panics if `branch_idx` is out of range.
    pub fn predict_parts(&self, branch_idx: usize, light: &[f32]) -> (f64, f64) {
        (
            self.det[branch_idx].predict(light).max(0.0) as f64,
            self.trk[branch_idx].predict(light).max(0.0) as f64,
        )
    }

    /// Predicted mean per-frame kernel latency of a branch, given the
    /// light features and the current multiplicative corrections for GPU
    /// (detector) and CPU (tracker) time.
    ///
    /// # Panics
    ///
    /// Panics if `branch_idx` is out of range.
    pub fn predict_kernel_ms(
        &self,
        branch_idx: usize,
        light: &[f32],
        gpu_corr: f64,
        cpu_corr: f64,
    ) -> f64 {
        let d = self.det[branch_idx].predict(light).max(0.0) as f64;
        let t = self.trk[branch_idx].predict(light).max(0.0) as f64;
        d * gpu_corr + t * cpu_corr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featsvc::FeatureService;
    use crate::offline::{profile_videos, OfflineConfig};
    use lr_kernels::branch::small_catalog;
    use lr_kernels::DetectorFamily;
    use lr_video::{Video, VideoSpec};

    fn dataset() -> OfflineDataset {
        let videos: Vec<Video> = (0..3)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 300 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 80,
                })
            })
            .collect();
        let cfg = OfflineConfig {
            snippet_len: 40,
            catalog: small_catalog(),
            family: DetectorFamily::FasterRcnn,
            reference_detector: lr_kernels::DetectorConfig::new(576, 100),
            seed: 8,
        };
        profile_videos(&videos, &cfg, &mut FeatureService::new())
    }

    #[test]
    fn scaler_standardizes() {
        let rows = vec![vec![0.0, 10.0], vec![2.0, 30.0], vec![4.0, 50.0]];
        let s = Scaler::fit(&rows);
        let t = s.transform(&[2.0, 30.0]);
        assert!(
            t.iter().all(|v| v.abs() < 1e-5),
            "mean row -> zeros, got {t:?}"
        );
    }

    #[test]
    fn light_model_trains_and_predicts_in_range() {
        let ds = dataset();
        let m = AccuracyModel::train(FeatureKind::Light, &ds, &AccuracyModelConfig::tiny(), 1);
        let r = &ds.records[0];
        let pred = m.predict(&r.light, None);
        assert_eq!(pred.len(), ds.catalog.len());
        assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn content_model_uses_heavy_feature() {
        let ds = dataset();
        let m = AccuracyModel::train(FeatureKind::HoC, &ds, &AccuracyModelConfig::tiny(), 2);
        let r = &ds.records[0];
        let h = r.heavy[&FeatureKind::HoC].clone();
        let pred = m.predict(&r.light, Some(&h));
        assert_eq!(pred.len(), ds.catalog.len());
        // Prediction must depend on the content vector: compare against a
        // mildly perturbed copy of a real feature (an arbitrary constant
        // vector could saturate the clamp on both sides).
        let other: Vec<f32> = h.iter().map(|&v| v * 0.5 + 0.01).collect();
        let pred2 = m.predict(&r.light, Some(&other));
        assert_ne!(pred, pred2);
    }

    #[test]
    fn training_reduces_error_vs_untrained() {
        let ds = dataset();
        let trained =
            AccuracyModel::train(FeatureKind::Light, &ds, &AccuracyModelConfig::tiny(), 3);
        // Compare against predicting the (clamped) raw output of a network
        // trained for zero epochs.
        let zero_cfg = AccuracyModelConfig {
            epochs: 0,
            ..AccuracyModelConfig::tiny()
        };
        let untrained = AccuracyModel::train(FeatureKind::Light, &ds, &zero_cfg, 3);
        assert!(label_mse(&trained, &ds) < label_mse(&untrained, &ds));
    }

    /// Mean squared error of a light model's predictions against the
    /// dataset's labels.
    fn label_mse(model: &AccuracyModel, ds: &OfflineDataset) -> f32 {
        let mut total = 0.0f32;
        let mut count = 0usize;
        for r in &ds.records {
            for (&p, &t) in model.predict(&r.light, None).iter().zip(&r.branch_map) {
                total += (p - t) * (p - t);
                count += 1;
            }
        }
        total / count.max(1) as f32
    }

    #[test]
    fn latency_model_orders_branches_sensibly() {
        let ds = dataset();
        let lm = LatencyModel::train(&ds);
        let light = &ds.records[0].light;
        let dense_heavy = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_none() && b.detector.shape == 448)
            .unwrap();
        let tracked = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_some() && b.gof_size == 20 && b.detector.shape == 448)
            .unwrap();
        let dense_ms = lm.predict_kernel_ms(dense_heavy, light, 1.0, 1.0);
        let tracked_ms = lm.predict_kernel_ms(tracked, light, 1.0, 1.0);
        assert!(
            tracked_ms < dense_ms,
            "tracked {tracked_ms} vs dense {dense_ms}"
        );
    }

    #[test]
    fn gpu_correction_scales_detector_part_only() {
        let ds = dataset();
        let lm = LatencyModel::train(&ds);
        let light = &ds.records[0].light;
        // A heavily tracked branch is mostly CPU: doubling the GPU
        // correction should change it far less than a dense branch.
        let dense = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_none() && b.detector.shape == 448)
            .unwrap();
        let tracked = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_some() && b.gof_size == 20)
            .unwrap();
        let dense_ratio = lm.predict_kernel_ms(dense, light, 2.0, 1.0)
            / lm.predict_kernel_ms(dense, light, 1.0, 1.0);
        let tracked_ratio = lm.predict_kernel_ms(tracked, light, 2.0, 1.0)
            / lm.predict_kernel_ms(tracked, light, 1.0, 1.0);
        assert!(dense_ratio > 1.9);
        assert!(tracked_ratio < dense_ratio);
    }

    #[test]
    fn latency_predictions_are_close_to_observations() {
        let ds = dataset();
        let lm = LatencyModel::train(&ds);
        let mut rel_err = 0.0;
        let mut n = 0;
        for r in &ds.records {
            for (b, (&d, &t)) in r
                .branch_det_ms
                .iter()
                .zip(r.branch_trk_ms.iter())
                .enumerate()
            {
                let obs = d + t;
                let pred = lm.predict_kernel_ms(b, &r.light, 1.0, 1.0);
                rel_err += ((pred - obs) / obs.max(1e-3)).abs();
                n += 1;
            }
        }
        let mean_rel = rel_err / n as f64;
        assert!(mean_rel < 0.35, "mean relative latency error {mean_rel}");
    }
}
