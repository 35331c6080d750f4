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

use lr_features::{light, FeatureKind};
use lr_nn::{fit_ridge, Examples, LinearModel, Mlp, MlpConfig, PackedMlp, Sgd};

use crate::offline::{OfflineDataset, SnippetRecord};

/// Per-dimension standardization fitted on training data.
#[derive(Debug, Clone)]
pub struct Scaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Scaler {
    /// Fits mean/std per dimension over `rows`, each row the
    /// concatenation of its parts. The rows are read twice, once for the
    /// means and once for the variances, and never concatenated.
    ///
    /// # Panics
    ///
    /// Panics on an empty or ragged dataset.
    pub(crate) fn fit<'a, P: AsRef<[&'a [f32]]>>(rows: impl Iterator<Item = P> + Clone) -> Self {
        fn values<'b>(parts: &'b [&[f32]]) -> impl Iterator<Item = f32> + 'b {
            parts.iter().flat_map(|p| p.iter()).copied()
        }
        let width = |parts: &[&[f32]]| parts.iter().map(|p| p.len()).sum::<usize>();
        let Some(d) = rows.clone().next().map(|row| width(row.as_ref())) else {
            panic!("cannot fit a scaler on no data");
        };
        let mut mean = vec![0.0f32; d];
        let mut n = 0usize;
        for row in rows.clone() {
            assert_eq!(width(row.as_ref()), d, "ragged rows");
            for (m, v) in mean.iter_mut().zip(values(row.as_ref())) {
                *m += v;
            }
            n += 1;
        }
        let n = n as f32;
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for row in rows {
            for ((s, v), &m) in var.iter_mut().zip(values(row.as_ref())).zip(mean.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        // Floor the std well above machine epsilon: dimensions that are
        // (near-)constant in training would otherwise blow up at inference
        // when a new video activates them (e.g. an unseen HoC bin).
        let std = var.into_iter().map(|s| (s / n).sqrt().max(2e-2)).collect();
        Self { mean, std }
    }

    /// The standardization of the concatenated `parts`, value by value:
    /// `(v - mean) / std`.
    ///
    /// # Panics
    ///
    /// Panics if the parts' total width differs from the fitted one.
    fn scaled<'a>(&'a self, parts: &'a [&'a [f32]]) -> impl Iterator<Item = f32> + 'a {
        let width: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(width, self.mean.len(), "dimension mismatch");
        let values = parts.iter().flat_map(|p| p.iter());
        let stats = self.mean.iter().zip(self.std.iter());
        values.zip(stats).map(|(&v, (&m, &s))| (v - m) / s)
    }

    /// Appends the standardization of the concatenated `parts` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the parts' total width differs from the fitted one.
    pub(crate) fn transform_into(&self, parts: &[&[f32]], out: &mut Vec<f32>) {
        out.extend(self.scaled(parts));
    }

    /// Input dimensionality.
    pub(crate) fn dim(&self) -> usize {
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
    pub(crate) fn paper() -> Self {
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
///
/// Training fits an [`Mlp`]; the model then keeps only its
/// inference-only [`PackedMlp`] conversion, whose one-row forward is
/// bit-identical to the `Mlp`'s.
#[derive(Debug, Clone)]
pub struct AccuracyModel {
    kind: FeatureKind,
    scaler: Scaler,
    net: PackedMlp,
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
    pub(crate) fn train(
        kind: FeatureKind,
        dataset: &OfflineDataset,
        cfg: &AccuracyModelConfig,
        seed: u64,
    ) -> Self {
        let (scaler, mlp, final_train_mse) = Self::fit(kind, dataset, cfg, seed);
        Self {
            kind,
            scaler,
            net: PackedMlp::from(mlp),
            final_train_mse,
        }
    }

    /// The fitted scaler and network, and the final training MSE.
    ///
    /// The network reads each record's standardized input and its labels
    /// as it gathers a batch ([`ScaledRecords`]), so training holds no
    /// copy of the dataset.
    fn fit(
        kind: FeatureKind,
        dataset: &OfflineDataset,
        cfg: &AccuracyModelConfig,
        seed: u64,
    ) -> (Scaler, Mlp, f32) {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let scaler = Scaler::fit(
            dataset
                .records
                .iter()
                .map(|r| input_parts(kind, &r.light, r.heavy.get(&kind).map(|v| v.as_slice()))),
        );
        let examples = ScaledRecords {
            kind,
            records: &dataset.records,
            scaler: &scaler,
        };
        let in_dim = scaler.dim();
        let out_dim = dataset.catalog.len();

        let mut rng = StdRng::seed_from_u64(seed ^ kind_seed(kind));
        // Leaky ReLU hidden layers: with only a few hundred snippets of
        // training data, plain ReLU units die wholesale under SGD and the
        // network collapses to a constant predictor.
        let mlp_cfg = MlpConfig {
            hidden_activation: lr_nn::Activation::LeakyRelu,
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
            let history = mlp.fit(&examples, opt, cfg.epochs, cfg.batch_size, &mut rng);
            let final_mse = history.last().copied().unwrap_or(f32::INFINITY);
            if final_mse.is_finite() || attempt >= 3 {
                break (mlp, final_mse);
            }
            attempt += 1;
            lr *= 0.25;
        };
        (scaler, mlp, final_train_mse)
    }

    /// Final training MSE (diagnostics).
    pub fn train_mse(&self) -> f32 {
        self.final_train_mse
    }

    /// Predicts per-branch snippet mAP, clamped to `[0, 1]`.
    ///
    /// The standardized input is written straight into one buffer, and
    /// the forward pass alternates between it and one spare: two
    /// allocations per call.
    ///
    /// # Panics
    ///
    /// Panics if the input widths do not match training.
    pub fn predict(&self, light: &[f32], heavy: Option<&[f32]>) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.net.width());
        let mut spare = Vec::with_capacity(self.net.width());
        self.scaler
            .transform_into(&input_parts(self.kind, light, heavy), &mut x);
        self.net.infer_row(&mut x, &mut spare);
        for v in &mut x {
            *v = v.clamp(0.0, 1.0);
        }
        x
    }
}

/// The model input for `kind`: the light features, then the heavy
/// feature, which is empty for the light model.
///
/// # Panics
///
/// Panics if a content model is given no heavy feature.
fn input_parts<'a>(
    kind: FeatureKind,
    light: &'a [f32],
    heavy: Option<&'a [f32]>,
) -> [&'a [f32]; 2] {
    if kind == FeatureKind::Light {
        [light, &[]]
    } else {
        [
            light,
            heavy.unwrap_or_else(|| panic!("record lacks {kind:?} feature")),
        ]
    }
}

/// The offline records as an accuracy model's training examples: the
/// standardized input of `kind`, and the per-branch mAP labels.
struct ScaledRecords<'a> {
    kind: FeatureKind,
    records: &'a [SnippetRecord],
    scaler: &'a Scaler,
}

impl Examples for ScaledRecords<'_> {
    fn count(&self) -> usize {
        self.records.len()
    }

    fn input_into(&self, i: usize, out: &mut [f32]) {
        let r = &self.records[i];
        let heavy = r.heavy.get(&self.kind).map(|v| v.as_slice());
        let parts = input_parts(self.kind, &r.light, heavy);
        for (o, v) in out.iter_mut().zip(self.scaler.scaled(&parts)) {
            *o = v;
        }
    }

    fn target_into(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(&self.records[i].branch_map);
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
///
/// The regressions are stored flat: one contiguous slab holds every
/// branch's detector and tracker weights and its pair of intercepts.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    branches: Vec<BranchLatency>,
}

/// One branch's detector and tracker regressions on the light features.
#[derive(Debug, Clone)]
struct BranchLatency {
    det: [f32; light::DIM],
    trk: [f32; light::DIM],
    /// The detector and tracker intercepts.
    bias: [f32; 2],
}

impl BranchLatency {
    /// Detector and tracker milliseconds: each regression's
    /// `bias + w . light`, summed as [`LinearModel::predict`] sums it,
    /// floored at zero.
    fn parts(&self, light: &[f32; light::DIM]) -> (f64, f64) {
        let affine = |w: &[f32; light::DIM], bias: f32| {
            let sum = w.iter().zip(light).map(|(&w, &v)| w * v).sum::<f32>();
            (bias + sum).max(0.0) as f64
        };
        (
            affine(&self.det, self.bias[0]),
            affine(&self.trk, self.bias[1]),
        )
    }
}

/// `light` as the fixed-width light feature vector.
///
/// # Panics
///
/// Panics if `light` has the wrong width.
fn light_array(light: &[f32]) -> &[f32; light::DIM] {
    let Ok(light) = light.try_into() else {
        panic!("feature width mismatch: {} != {}", light.len(), light::DIM);
    };
    light
}

impl LatencyModel {
    /// Fits per-branch ridge regressions on the light features.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or on light features of another width
    /// than [`light::DIM`].
    pub fn train(dataset: &OfflineDataset) -> Self {
        let (det, trk) = Self::fit(dataset);
        Self::from_regressions(&det, &trk)
    }

    /// The per-branch detector and tracker regressions.
    fn fit(dataset: &OfflineDataset) -> (Vec<LinearModel>, Vec<LinearModel>) {
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
            #[expect(clippy::expect_used, reason = "the dataset was asserted non-empty")]
            let det = fit_ridge(&xs, &det_y, 1e-3).expect("ridge solve");
            #[expect(clippy::expect_used, reason = "the dataset was asserted non-empty")]
            let trk = fit_ridge(&xs, &trk_y, 1e-3).expect("ridge solve");
            (det, trk)
        });
        fits.into_iter().unzip()
    }

    /// Flattens one detector and one tracker regression per branch.
    fn from_regressions(det: &[LinearModel], trk: &[LinearModel]) -> Self {
        let branches = det
            .iter()
            .zip(trk)
            .map(|(d, t)| BranchLatency {
                det: *light_array(&d.weights),
                trk: *light_array(&t.weights),
                bias: [d.bias, t.bias],
            })
            .collect();
        Self { branches }
    }

    /// Number of branches covered.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Predicted detector and tracker per-frame milliseconds for one
    /// branch (before corrections): each regression's `bias + w . light`,
    /// floored at zero.
    ///
    /// # Panics
    ///
    /// Panics if `branch_idx` is out of range or `light` has the wrong
    /// width.
    pub fn predict_parts(&self, branch_idx: usize, light: &[f32]) -> (f64, f64) {
        self.branches[branch_idx].parts(light_array(light))
    }

    /// Predicted mean per-frame kernel latency of a branch, given the
    /// light features and the current multiplicative corrections for GPU
    /// (detector) and CPU (tracker) time.
    ///
    /// # Panics
    ///
    /// Panics if `branch_idx` is out of range or `light` has the wrong
    /// width.
    pub fn predict_kernel_ms(
        &self,
        branch_idx: usize,
        light: &[f32],
        gpu_corr: f64,
        cpu_corr: f64,
    ) -> f64 {
        let (d, t) = self.predict_parts(branch_idx, light);
        d * gpu_corr + t * cpu_corr
    }

    /// [`LatencyModel::predict_kernel_ms`] of every branch, in branch
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `light` has the wrong width.
    pub fn predict_all_kernel_ms(&self, light: &[f32], gpu_corr: f64, cpu_corr: f64) -> Vec<f64> {
        let light = light_array(light);
        let kernel_ms = |b: &BranchLatency| {
            let (d, t) = b.parts(light);
            d * gpu_corr + t * cpu_corr
        };
        self.branches.iter().map(kernel_ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featsvc::FeatureService;
    use crate::offline::{profile_videos, OfflineConfig};
    use lr_kernels::branch::small_catalog;
    use lr_kernels::DetectorFamily;
    use lr_nn::Matrix;
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
            seed: 8,
        };
        profile_videos(&videos, &cfg, &FeatureService::new())
    }

    #[test]
    fn scaler_standardizes() {
        let rows = [[0.0, 10.0], [2.0, 30.0], [4.0, 50.0]];
        let s = Scaler::fit(rows.iter().map(|r| [r.as_slice()]));
        let mut t = Vec::new();
        s.transform_into(&[&[2.0], &[30.0]], &mut t);
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

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn packed_predictions_are_bit_identical_to_the_trained_mlp() {
        let ds = dataset();
        let cfg = AccuracyModelConfig {
            epochs: 5,
            ..AccuracyModelConfig::fast()
        };
        for kind in [FeatureKind::Light, FeatureKind::HoC] {
            let (scaler, mlp, mse) = AccuracyModel::fit(kind, &ds, &cfg, 4);
            let model = AccuracyModel {
                kind,
                scaler: scaler.clone(),
                net: PackedMlp::from(mlp.clone()),
                final_train_mse: mse,
            };
            for r in &ds.records {
                let heavy = r.heavy.get(&kind).map(|v| v.as_slice());
                let mut x = Vec::new();
                scaler.transform_into(&input_parts(kind, &r.light, heavy), &mut x);
                let want = mlp
                    .infer(&Matrix::row_vector(&x))
                    .map(|v| v.clamp(0.0, 1.0));
                let got = model.predict(&r.light, heavy);
                assert_eq!(bits(&got), bits(want.as_slice()), "{kind:?}");
            }
        }
    }

    /// Checks every branch of `lm` against its two `LinearModel`s on
    /// every light vector, bit for bit.
    fn assert_matches_regressions(
        lm: &LatencyModel,
        det: &[LinearModel],
        trk: &[LinearModel],
        lights: &[Vec<f32>],
    ) {
        let (gpu_corr, cpu_corr) = (1.3, 0.7);
        for light in lights {
            let all = lm.predict_all_kernel_ms(light, gpu_corr, cpu_corr);
            assert_eq!(all.len(), det.len());
            for (b, (d, t)) in det.iter().zip(trk).enumerate() {
                let want_d = d.predict(light).max(0.0) as f64;
                let want_t = t.predict(light).max(0.0) as f64;
                let (got_d, got_t) = lm.predict_parts(b, light);
                assert_eq!(
                    (got_d.to_bits(), got_t.to_bits()),
                    (want_d.to_bits(), want_t.to_bits())
                );
                let want = want_d * gpu_corr + want_t * cpu_corr;
                let got = lm.predict_kernel_ms(b, light, gpu_corr, cpu_corr);
                assert_eq!(got.to_bits(), want.to_bits());
                assert_eq!(all[b].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn flat_latency_model_matches_the_per_branch_regressions() {
        // The fitted regressions on every record.
        let ds = dataset();
        let (det, trk) = LatencyModel::fit(&ds);
        let lm = LatencyModel::from_regressions(&det, &trk);
        assert_eq!(lm.num_branches(), ds.catalog.len());
        let lights: Vec<Vec<f32>> = ds.records.iter().map(|r| r.light.clone()).collect();
        assert_matches_regressions(&lm, &det, &trk, &lights);
        // The test videos share one frame size, so their regressions
        // weigh two of the four features at about zero. Random
        // regressions on random light vectors make all four products
        // count, so a change of summation order shows.
        let mut rng = lr_nn::init::seeded_rng(9);
        let mut regressions = |n: usize| -> Vec<LinearModel> {
            let w = lr_nn::init::uniform(n, light::DIM, 3.0, &mut rng);
            let bias = lr_nn::init::uniform(1, n, 10.0, &mut rng);
            let model = |(r, &bias)| LinearModel {
                weights: w.row(r).to_vec(),
                bias,
            };
            bias.as_slice().iter().enumerate().map(model).collect()
        };
        let (det, trk) = (regressions(64), regressions(64));
        let lm = LatencyModel::from_regressions(&det, &trk);
        let lights = lr_nn::init::uniform(200, light::DIM, 1.0, &mut rng);
        let lights: Vec<Vec<f32>> = (0..200).map(|r| lights.row(r).to_vec()).collect();
        assert_matches_regressions(&lm, &det, &trk, &lights);
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
