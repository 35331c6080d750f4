//! Class Predictions on Proposals (CPoP), `f_H^4`.
//!
//! Table 1: "Prediction logits on the region proposals are extracted and
//! average pooled over all region proposals. We only reserve the class
//! dimension (including a background class)." The detector simulator in
//! `lr-kernels` produces per-proposal class logits; this module pools them
//! into the 31-dimensional CPoP vector (30 VID classes + background).

use lr_video::NUM_CLASSES;

/// CPoP dimensionality: 30 classes plus background.
pub const DIM: usize = NUM_CLASSES + 1;

/// Average-pools per-proposal class logits into the CPoP vector, then
/// softmax-normalizes so the feature is scale-free.
///
/// An empty proposal list yields the all-background distribution.
pub fn cpop_vector(proposal_logits: &[[f32; DIM]]) -> Vec<f32> {
    let mut pooled = vec![0.0f32; DIM];
    if proposal_logits.is_empty() {
        // No proposals: everything is background.
        pooled[DIM - 1] = 1.0;
        return pooled;
    }
    for logits in proposal_logits {
        for (p, &l) in pooled.iter_mut().zip(logits.iter()) {
            *p += l;
        }
    }
    let inv = 1.0 / proposal_logits.len() as f32;
    for p in &mut pooled {
        *p *= inv;
    }
    softmax_in_place(&mut pooled);
    pooled
}

/// Numerically stable softmax.
fn softmax_in_place(v: &mut [f32]) {
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in v.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_is_31() {
        assert_eq!(DIM, 31);
    }

    #[test]
    fn empty_proposals_are_all_background() {
        let v = cpop_vector(&[]);
        assert_eq!(v.len(), DIM);
        assert_eq!(v[DIM - 1], 1.0);
        assert!(v[..DIM - 1].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn output_is_a_distribution() {
        let logits = [[0.5; DIM], [-0.5; DIM]];
        let v = cpop_vector(&logits);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn dominant_class_dominates_output() {
        let mut logits = [0.0f32; DIM];
        logits[6] = 5.0; // "car" spikes.
        let v = cpop_vector(&[logits]);
        let argmax = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax, 6);
    }

    #[test]
    fn pooling_averages_across_proposals() {
        let mut a = [0.0f32; DIM];
        a[0] = 4.0;
        let mut b = [0.0f32; DIM];
        b[1] = 4.0;
        let v = cpop_vector(&[a, b]);
        assert!(
            (v[0] - v[1]).abs() < 1e-6,
            "symmetric proposals must pool equally"
        );
    }
}
