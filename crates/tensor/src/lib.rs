//! # rt3-tensor
//!
//! Dense matrix type, reverse-mode autograd and optimizers — the numerical
//! substrate under the RT3 reproduction ("Dancing along Battery: Enabling
//! Transformer with Run-time Reconfigurability on Mobile Devices", DAC 2021).
//!
//! The paper prunes and fine-tunes Transformer weight matrices; everything in
//! this crate exists so those operations can run without any external deep
//! learning framework:
//!
//! * [`Matrix`] — dense row-major `f32` matrix with the block/row/column
//!   accessors the pruning algorithms need.
//! * [`Graph`] / [`Var`] — tape-based automatic differentiation for training
//!   the backbone model under weight masks.
//! * [`gelu`], [`layer_norm_row`], [`softmax_row`] — the scalar and row
//!   kernels, defined once and shared by the tape and the tape-free
//!   inference forward of `rt3-transformer`.
//! * [`Sgd`] / [`Adam`] — optimizers used during fine-tuning.
//! * [`check_gradient`] — finite-difference verification used by tests.
//!
//! # Examples
//!
//! Train a one-parameter model with the full stack:
//!
//! ```
//! use rt3_tensor::{Adam, Graph, Matrix, Optimizer};
//!
//! let mut w = Matrix::from_rows(&[vec![0.0]]);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let wv = g.leaf(w.clone());
//!     let target = Matrix::from_rows(&[vec![2.0]]);
//!     let loss = g.mse_loss(wv, &target);
//!     g.backward(loss);
//!     let grad = g.grad(wv).clone();
//!     opt.step(0, &mut w, &grad);
//! }
//! assert!((w.get(0, 0) - 2.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gradcheck;
mod graph;
mod kernels;
mod matrix;
mod optim;

pub use gradcheck::{check_gradient, GradCheckReport};
pub use graph::{Graph, Var};
pub use kernels::{gelu, layer_norm_row, softmax_row, softmax_rows_matrix};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
