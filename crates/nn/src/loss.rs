//! Classification losses.

use taamr_tensor::Tensor;

/// Fused softmax + cross-entropy over a `[batch, classes]` logit matrix.
///
/// Returns the mean loss over the batch together with the gradient of that
/// mean loss with respect to the logits (shape `[batch, classes]`). The
/// softmax is computed with the max-subtraction trick for numerical
/// stability.
///
/// # Panics
///
/// Panics if `logits` is not rank-2, if `labels.len()` differs from the batch
/// size, or if any label is out of range.
///
/// # Example
///
/// ```
/// use taamr_nn::loss::softmax_cross_entropy;
/// use taamr_tensor::Tensor;
///
/// // A confident, correct prediction has near-zero loss.
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2])?;
/// let (loss, _grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 1e-3);
/// # Ok::<(), taamr_tensor::TensorError>(())
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let mut grad = Tensor::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] writing the logit gradient into a reusable
/// buffer; returns the mean loss. Bitwise identical to the allocating form.
///
/// # Panics
///
/// As [`softmax_cross_entropy`].
pub fn softmax_cross_entropy_into(logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
    assert_eq!(logits.rank(), 2, "softmax_cross_entropy expects [batch, classes] logits");
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), n, "one label per batch row required");

    grad.reset_for_overwrite(&[n, c]);
    let mut total_loss = 0.0f64;
    let src = logits.as_slice();
    let g = grad.as_mut_slice();
    let inv_n = 1.0 / n as f32;

    for (i, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let row = &src[i * c..(i + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for &v in row {
            sum += (v - max).exp();
        }
        let log_sum = sum.ln() + max;
        total_loss += f64::from(log_sum - row[label]);
        let grow = &mut g[i * c..(i + 1) * c];
        for (j, gv) in grow.iter_mut().enumerate() {
            let p = (row[j] - max).exp() / sum;
            *gv = (p - if j == label { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    (total_loss / n as f64) as f32
}

/// Fused softmax + cross-entropy against *soft* target distributions.
///
/// Used by defensive distillation: the student minimises
/// `−Σ_j p_j log softmax(z)_j` against the teacher's softened probabilities
/// `p`. Returns the mean loss and its gradient with respect to the logits.
///
/// # Panics
///
/// Panics if the shapes differ or are not rank-2.
pub fn soft_cross_entropy(logits: &Tensor, target_probs: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "soft_cross_entropy expects [batch, classes] logits");
    assert_eq!(logits.dims(), target_probs.dims(), "one target distribution per row");
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    let mut grad = Tensor::zeros(&[n, c]);
    let mut total = 0.0f64;
    let src = logits.as_slice();
    let tgt = target_probs.as_slice();
    let g = grad.as_mut_slice();
    let inv_n = 1.0 / n as f32;
    for i in 0..n {
        let row = &src[i * c..(i + 1) * c];
        let trow = &tgt[i * c..(i + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for &v in row {
            sum += (v - max).exp();
        }
        let log_sum = sum.ln() + max;
        let grow = &mut g[i * c..(i + 1) * c];
        for j in 0..c {
            let log_p = row[j] - log_sum;
            total -= f64::from(trow[j] * log_p);
            let p = log_p.exp();
            grow[j] = (p - trow[j]) * inv_n;
        }
    }
    ((total / n as f64) as f32, grad)
}

/// Feature-matching loss `L = Σ(f − t)² / (N·D)` over `[batch, D]` feature
/// rows — the mean over the batch of `‖f_i − t_i‖² / D` — plus its gradient
/// with respect to the features, `∂L/∂f = 2 (f − t) / (N·D)`.
///
/// This is the objective of the item-to-item feature-matching attack, so
/// the gradient path ([`crate::FeatureGradient::feature_loss_input_grad`])
/// and forward-only loss probes read the same number.
///
/// # Panics
///
/// Panics if `features` and `target` differ in shape or are not rank-2.
pub fn feature_match_loss(features: &Tensor, target: &Tensor) -> (f32, Tensor) {
    let mut grad = Tensor::default();
    let loss = feature_match_loss_into(features, target, &mut grad);
    (loss, grad)
}

/// [`feature_match_loss`] writing the feature gradient into a reusable
/// buffer; returns the loss. Bitwise identical to the allocating form.
///
/// # Panics
///
/// As [`feature_match_loss`].
pub fn feature_match_loss_into(features: &Tensor, target: &Tensor, grad: &mut Tensor) -> f32 {
    assert_eq!(features.rank(), 2, "feature_match_loss expects [batch, D] features");
    assert_eq!(
        features.dims(),
        target.dims(),
        "one target feature row per batch element required"
    );
    let (n, d) = (features.dims()[0], features.dims()[1]);
    // grad holds f − t first, then is scaled into 2 (f − t) / (N·D).
    grad.reset_for_overwrite(features.dims());
    for ((g, &f), &t) in grad.iter_mut().zip(features.iter()).zip(target.iter()) {
        *g = f - t;
    }
    let loss = grad.iter().map(|&v| v * v).sum::<f32>() / (n * d) as f32;
    grad.scale(2.0 / (n * d) as f32);
    loss
}

/// Row-wise softmax of `logits / temperature` — the "softened" distribution
/// defensive distillation trains against.
///
/// # Panics
///
/// Panics if `logits` is not rank-2 or `temperature` is not positive.
pub fn softmax_with_temperature(logits: &Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    softmax(&logits.scaled(1.0 / temperature))
}

/// Row-wise softmax probabilities of a `[batch, classes]` logit matrix.
///
/// # Panics
///
/// Panics if `logits` is not rank-2.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax expects [batch, classes] logits");
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = Tensor::zeros(&[n, c]);
    let src = logits.as_slice();
    let dst = out.as_mut_slice();
    for i in 0..n {
        let row = &src[i * c..(i + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        let orow = &mut dst[i * c..(i + 1) * c];
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_match_loss_is_mean_squared_distance_with_its_gradient() {
        let f = Tensor::from_vec(vec![1.0, 2.0, 0.0, -1.0], &[2, 2]).unwrap();
        let t = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let (loss, grad) = feature_match_loss(&f, &t);
        // (1 + 4 + 0 + 4) / (2·2)
        assert_eq!(loss, 2.25);
        // 2 (f − t) / 4
        assert_eq!(grad.as_slice(), &[0.5, 1.0, 0.0, -1.0]);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for i in 0..2 {
            let s: f32 = grad.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.5, -0.3, 1.2, 0.1], &[2, 2]).unwrap();
        let labels = [1usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let numeric =
                (softmax_cross_entropy(&lp, &labels).0 - softmax_cross_entropy(&lm, &labels).0)
                    / (2.0 * eps);
            assert!(
                (grad.as_slice()[i] - numeric).abs() < 1e-3,
                "{} vs {}",
                grad.as_slice()[i],
                numeric
            );
        }
    }

    #[test]
    fn loss_decreases_toward_correct_class() {
        let worse = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let better = Tensor::from_vec(vec![2.0, 1.0], &[1, 2]).unwrap();
        assert!(
            softmax_cross_entropy(&better, &[0]).0 < softmax_cross_entropy(&worse, &[0]).0
        );
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let logits = Tensor::from_vec(vec![5.0, 1.0, -2.0, 100.0, 100.0, 100.0], &[2, 3]).unwrap();
        let p = softmax(&logits);
        for i in 0..2 {
            let row = &p.as_slice()[i * 3..(i + 1) * 3];
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // Large equal logits do not overflow.
        assert!(p.all_finite());
    }

    #[test]
    fn soft_ce_reduces_to_hard_ce_on_one_hot_targets() {
        let logits = Tensor::from_vec(vec![0.5, -0.3, 1.2, 0.1], &[2, 2]).unwrap();
        let one_hot = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]).unwrap();
        let (hard, hard_grad) = softmax_cross_entropy(&logits, &[1, 0]);
        let (soft, soft_grad) = soft_cross_entropy(&logits, &one_hot);
        assert!((hard - soft).abs() < 1e-5);
        for (a, b) in hard_grad.iter().zip(soft_grad.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn soft_ce_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.2, -0.5, 0.9, 0.4, 0.0, -1.0], &[2, 3]).unwrap();
        let targets =
            Tensor::from_vec(vec![0.2, 0.5, 0.3, 0.6, 0.1, 0.3], &[2, 3]).unwrap();
        let (_, grad) = soft_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let numeric = (soft_cross_entropy(&lp, &targets).0
                - soft_cross_entropy(&lm, &targets).0)
                / (2.0 * eps);
            assert!((grad.as_slice()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn temperature_flattens_the_distribution() {
        let logits = Tensor::from_vec(vec![3.0, 0.0, -3.0], &[1, 3]).unwrap();
        let sharp = softmax_with_temperature(&logits, 1.0);
        let soft = softmax_with_temperature(&logits, 10.0);
        assert!(soft.at(&[0, 0]) < sharp.at(&[0, 0]));
        assert!(soft.at(&[0, 2]) > sharp.at(&[0, 2]));
        let s: f32 = soft.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_panics() {
        softmax_with_temperature(&Tensor::zeros(&[1, 2]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        softmax_cross_entropy(&Tensor::zeros(&[1, 2]), &[2]);
    }

    #[test]
    #[should_panic(expected = "one label per batch row")]
    fn rejects_label_count_mismatch() {
        softmax_cross_entropy(&Tensor::zeros(&[2, 2]), &[0]);
    }
}
