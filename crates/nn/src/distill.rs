//! Defensive distillation (Papernot et al., S&P 2016) — one of the two
//! defence strategies the paper's conclusion proposes evaluating.
//!
//! A *student* network is trained on the *teacher's* temperature-softened
//! class probabilities instead of hard labels. At high temperature the
//! student's logit surface flattens, which masks the gradients single-step
//! attacks follow.

use rand::seq::SliceRandom;
use rand::Rng;
use taamr_tensor::Tensor;

use crate::loss::{soft_cross_entropy, softmax_with_temperature};
use crate::{Mode, Sgd, SgdConfig, TinyResNet};

/// Configuration of a defensive-distillation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillConfig {
    /// Softmax temperature `T` used for both the teacher's soft labels and
    /// the student's training logits (the classic recipe).
    pub temperature: f32,
    /// Student training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Student optimiser configuration.
    pub sgd: SgdConfig,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            temperature: 10.0,
            epochs: 10,
            batch_size: 16,
            sgd: SgdConfig::default(),
        }
    }
}

/// Trains `student` to mimic `teacher` on `images` via defensive
/// distillation, returning the per-epoch mean distillation loss.
///
/// The teacher's soft labels are computed once up front (it is not updated);
/// the student minimises the soft cross-entropy of its `logits / T` against
/// them. After training, the student is used at temperature 1, per the
/// original defence.
///
/// # Panics
///
/// Panics if `images` is not NCHW, the class counts differ, `temperature`
/// is not positive, or `epochs`/`batch_size` is zero.
pub fn distill(
    teacher: &mut TinyResNet,
    student: &mut TinyResNet,
    images: &Tensor,
    config: &DistillConfig,
    rng: &mut impl Rng,
) -> Vec<f32> {
    assert_eq!(images.rank(), 4, "distill expects NCHW images");
    assert!(config.temperature > 0.0, "temperature must be positive");
    assert!(config.epochs > 0 && config.batch_size > 0, "degenerate training schedule");
    assert_eq!(
        teacher.config().num_classes,
        student.config().num_classes,
        "teacher and student must share the class set"
    );
    let n = images.dims()[0];
    let sample_len: usize = images.dims()[1..].iter().product();

    // Teacher soft labels at temperature T, computed in inference mode.
    let mut soft_labels = Vec::with_capacity(n);
    for start in (0..n).step_by(64) {
        let end = (start + 64).min(n);
        let batch = gather(images, &(start..end).collect::<Vec<_>>(), sample_len);
        let (_, logits) = teacher.forward_full(&batch, Mode::Eval);
        let soft = softmax_with_temperature(logits, config.temperature);
        for i in 0..(end - start) {
            soft_labels.push(soft.row(i));
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let mut sgd = Sgd::new(config.sgd.clone());
    let mut history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let batch = gather(images, chunk, sample_len);
            let targets = stack_rows(&soft_labels, chunk);
            let (_, logits) = student.forward_full(&batch, Mode::Train);
            let scaled = logits.scaled(1.0 / config.temperature);
            let (loss, grad_scaled) = soft_cross_entropy(&scaled, &targets);
            // Chain rule through the 1/T scaling.
            let grad_logits = grad_scaled.scaled(1.0 / config.temperature);
            student.zero_grads();
            student.backward_from_logits(&grad_logits);
            sgd.step(&mut student.params_mut());
            total += f64::from(loss);
            batches += 1;
        }
        history.push((total / batches.max(1) as f64) as f32);
        sgd.advance_epoch();
    }
    history
}

fn gather(images: &Tensor, indices: &[usize], sample_len: usize) -> Tensor {
    let mut dims = images.dims().to_vec();
    dims[0] = indices.len();
    let mut out = Tensor::zeros(&dims);
    let src = images.as_slice();
    let dst = out.as_mut_slice();
    for (bi, &si) in indices.iter().enumerate() {
        dst[bi * sample_len..(bi + 1) * sample_len]
            .copy_from_slice(&src[si * sample_len..(si + 1) * sample_len]);
    }
    out
}

fn stack_rows(rows: &[Tensor], indices: &[usize]) -> Tensor {
    let d = rows[0].len();
    let mut out = Tensor::zeros(&[indices.len(), d]);
    for (bi, &si) in indices.iter().enumerate() {
        out.as_mut_slice()[bi * d..(bi + 1) * d].copy_from_slice(rows[si].as_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImageClassifier, TinyResNetConfig, Trainer, TrainerConfig};
    use taamr_tensor::seeded_rng;

    fn easy_set(rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        // Two trivially separable classes (dark vs bright).
        let n = 24;
        let mut images = Tensor::zeros(&[n, 3, 8, 8]);
        let mut labels = Vec::with_capacity(n);
        let sample = 3 * 8 * 8;
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { 0.2 } else { 0.8 };
            for j in 0..sample {
                images.as_mut_slice()[i * sample + j] = base + rng.gen_range(-0.05..0.05);
            }
            labels.push(class);
        }
        (images, labels)
    }

    #[test]
    fn student_learns_the_teachers_function() {
        let mut rng = seeded_rng(0);
        let arch = TinyResNetConfig::tiny_for_tests(2);
        let mut teacher = TinyResNet::new(&arch, &mut rng);
        let (images, labels) = easy_set(&mut rng);
        let trainer = Trainer::new(TrainerConfig {
            epochs: 8,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, ..SgdConfig::default() },
            ..TrainerConfig::default()
        });
        trainer.fit(&mut teacher, &images, &labels, &mut rng).unwrap();
        assert!(trainer.evaluate(&mut teacher, &images, &labels) > 0.9);

        let mut student = TinyResNet::new(&arch, &mut seeded_rng(99));
        let cfg = DistillConfig {
            temperature: 5.0,
            epochs: 10,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, ..SgdConfig::default() },
        };
        let history = distill(&mut teacher, &mut student, &images, &cfg, &mut rng);
        assert!(history.last().unwrap() < &history[0], "distillation loss should fall");
        // The student inherits the teacher's behaviour on the data.
        let teacher_preds = teacher.predict(&images);
        let student_preds = student.predict(&images);
        let agreement = teacher_preds
            .iter()
            .zip(&student_preds)
            .filter(|(a, b)| a == b)
            .count() as f32
            / teacher_preds.len() as f32;
        assert!(agreement > 0.85, "student agrees with teacher only {agreement}");
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_zero_temperature() {
        let mut rng = seeded_rng(1);
        let arch = TinyResNetConfig::tiny_for_tests(2);
        let mut teacher = TinyResNet::new(&arch, &mut rng);
        let mut student = TinyResNet::new(&arch, &mut rng);
        let images = Tensor::zeros(&[2, 3, 8, 8]);
        let cfg = DistillConfig { temperature: 0.0, ..DistillConfig::default() };
        distill(&mut teacher, &mut student, &images, &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "share the class set")]
    fn rejects_class_mismatch() {
        let mut rng = seeded_rng(2);
        let mut teacher = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(2), &mut rng);
        let mut student = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(3), &mut rng);
        let images = Tensor::zeros(&[2, 3, 8, 8]);
        distill(&mut teacher, &mut student, &images, &DistillConfig::default(), &mut rng);
    }
}
