//! The attack-facing classifier interface.

use taamr_tensor::Tensor;

/// A differentiable image classifier with an exposed feature layer.
///
/// This trait is the whole contract between the CNN and the rest of the
/// reproduction:
///
/// * recommenders consume [`ImageClassifier::features`] (the paper's layer
///   `e`, a `[batch, feature_dim]` matrix), and
/// * attacks consume [`ImageClassifier::loss_input_grad`], the exact gradient
///   of the classification loss with respect to the input pixels — the
///   `∇_x L_F(θ, x, y)` of the paper's Eq. 5.
///
/// All methods run the network in inference mode (frozen batch-norm
/// statistics): the adversary attacks a *deployed* model.
pub trait ImageClassifier {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Dimension `D` of the feature layer `e`.
    fn feature_dim(&self) -> usize;

    /// Raw class logits for an NCHW batch, shape `[batch, num_classes]`.
    fn logits(&mut self, x: &Tensor) -> Tensor;

    /// Deep features at layer `e` for an NCHW batch, shape
    /// `[batch, feature_dim]`.
    fn features(&mut self, x: &Tensor) -> Tensor;

    /// Mean cross-entropy loss of the batch against `labels`, plus its
    /// gradient with respect to `x` (same shape as `x`).
    ///
    /// For a *targeted* attack, pass the target class as the label and
    /// descend the returned gradient; for an untargeted attack, pass the true
    /// class and ascend it.
    ///
    /// Implementations leave the network's parameter gradients as they found
    /// them: an attack reads `∇ₓL` only (see [`crate::Layer::backward_input`]).
    /// The gradient is borrowed from the network's own buffer, which the next
    /// call rewrites in place, so an attack's gradient steps allocate nothing.
    fn loss_input_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, &Tensor);

    /// Predicted class per batch row (argmax of logits).
    fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x).argmax_rows().expect("logits form a non-empty matrix")
    }

    /// Softmax class probabilities, shape `[batch, num_classes]`.
    fn probabilities(&mut self, x: &Tensor) -> Tensor {
        crate::loss::softmax(&self.logits(x))
    }
}

/// A feature extractor that can differentiate a *feature-space* loss back to
/// its input pixels.
///
/// This powers the item-to-item "feature matching" attack (the paper's
/// stated future work: "a finer-grained visual attack to address a single
/// item even within the same category"): instead of steering the classifier
/// toward a class, the adversary steers the layer-`e` features toward a
/// specific victim item's features.
pub trait FeatureGradient: ImageClassifier {
    /// Mean squared feature-matching loss `‖f_e(x) − target‖² / D` per batch
    /// row (averaged over the batch), and its gradient with respect to `x`.
    ///
    /// `target_features` is row-major `[batch, feature_dim]`. The loss is
    /// [`crate::loss::feature_match_loss`] of the layer-`e` features, so a
    /// forward-only probe of [`ImageClassifier::features`] reads the same
    /// value bit for bit. Parameter gradients are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `target_features` does not have one `feature_dim`-length
    /// row per batch element.
    fn feature_loss_input_grad(&mut self, x: &Tensor, target_features: &Tensor)
        -> (f32, &Tensor);
}
