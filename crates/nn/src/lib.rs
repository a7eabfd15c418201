//! A from-scratch CNN framework with exact input gradients.
//!
//! This crate replaces the paper's TensorFlow + ResNet50 stack. It provides:
//!
//! * a [`Layer`] trait with explicit, auditable forward/backward passes,
//! * the layers a residual CNN needs ([`Conv2d`], [`BatchNorm2d`], [`ReLU`],
//!   [`GlobalAvgPool`], [`Dense`], [`ResidualBlock`], [`Sequential`]), each
//!   writing into buffers it owns so a steady-state pass never allocates,
//! * fused softmax–cross-entropy loss ([`loss::softmax_cross_entropy`]),
//! * an SGD optimiser with momentum and weight decay ([`Sgd`]),
//! * [`TinyResNet`], the stand-in for the paper's ResNet50: a residual CNN
//!   whose global-average-pool output is the feature layer `e` that VBPR/AMR
//!   consume and that the PSM metric compares,
//! * the [`ImageClassifier`] trait — the *attack surface*: targeted FGSM/PGD
//!   only need `loss_input_grad`, the exact gradient of the classification
//!   loss with respect to the input pixels,
//! * a [`Trainer`] for supervised training on labelled image batches.
//!
//! # Example
//!
//! ```
//! use taamr_nn::{ImageClassifier, TinyResNet, TinyResNetConfig};
//! use taamr_tensor::{seeded_rng, Tensor};
//!
//! let cfg = TinyResNetConfig::tiny_for_tests(4);
//! let mut net = TinyResNet::new(&cfg, &mut seeded_rng(0));
//! let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(1));
//! let logits = net.logits(&x);
//! assert_eq!(logits.dims(), &[2, 4]);
//! let (_, grad) = net.loss_input_grad(&x, &[1, 3]);
//! assert_eq!(grad.dims(), x.dims());
//! ```

#![deny(missing_docs)]

mod classifier;
mod distill;
mod layer;
pub mod layers;
pub mod loss;
pub mod parallel;
mod optimizer;
mod resnet;
mod trainer;

pub use classifier::{FeatureGradient, ImageClassifier};
pub use distill::{distill, DistillConfig};
pub use layer::{Layer, Mode, Param};
pub(crate) use layer::Workspace;
pub use layers::{BatchNorm2d, Conv2d, Dense, GlobalAvgPool, ReLU, ResidualBlock, Sequential};
pub use optimizer::{LrSchedule, Sgd, SgdConfig};
pub use resnet::{TinyResNet, TinyResNetConfig};
pub use trainer::{DivergenceConfig, EpochStats, TrainDiverged, Trainer, TrainerConfig};
