//! # rt3-transformer
//!
//! From-scratch Transformer models — the substrate that RT3 prunes and
//! reconfigures.
//!
//! The paper evaluates two models: a small encoder–decoder Transformer
//! (WikiText-2 next-word prediction) and DistilBERT (GLUE). This crate
//! implements both shapes on top of [`rt3_tensor`]:
//!
//! * [`TransformerLm`] — encoder–decoder language model
//!   ([`TransformerConfig::paper_transformer`] reproduces the 2-encoder /
//!   1-decoder layout).
//! * [`SequenceClassifier`] — DistilBERT-style encoder stack with a pooled
//!   classification/regression head
//!   ([`TransformerConfig::distilbert_like`]).
//! * [`MaskSet`] — named binary weight masks; the contract between the
//!   pruning algorithms (`rt3-pruning`) and masked training here.
//! * [`train_lm`] / [`train_classifier`] — fine-tuning loops with optional
//!   masks, used by the RT3 joint-training procedure.
//!
//! # Two forwards
//!
//! Each model runs forward in two ways:
//!
//! * **the tape** — [`TransformerLm::logits`] / [`SequenceClassifier::logits`]
//!   record every op on an autograd [`Graph`](rt3_tensor::Graph) with the
//!   weights bound by [`ParamBindings`]. Training and Level-2 search use it.
//! * **the tape-free inference forward** — [`TransformerLm::infer_logits`]
//!   / [`SequenceClassifier::infer_logits`], and `predict`, `predict_class`
//!   and `predict_score` on top of them. It reads the weights by reference,
//!   folds each mask into the weight row it is multiplying, and builds no
//!   tape, copies no parameter and allocates no gradient buffer.
//!
//! The inference logits are **bit-identical** to the tape's for any masks.
//! The reason: the tape-free path performs the same float operations in the
//! same order for every output element (`o += a * (w * m)` over ascending
//! `k`, skipping zero activations, bias added last). The scalar and row
//! kernels (`gelu`, `layer_norm_row`, `softmax_row`) are defined once in
//! `rt3-tensor` and shared by both paths. See DESIGN.md §14.
//!
//! # Examples
//!
//! ```
//! use rt3_transformer::{Model, TransformerConfig, TransformerLm};
//!
//! let model = TransformerLm::new(TransformerConfig::tiny(32), 0);
//! let next = model.predict(&[1, 2, 3], None);
//! assert_eq!(next.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod infer;
mod layers;
mod masks;
mod model;
mod trainer;

pub use config::TransformerConfig;
pub use layers::{DecoderLayer, EncoderLayer, FeedForward, LayerNormParams, MultiHeadAttention};
pub use masks::MaskSet;
pub use model::{Model, ParamBindings, SequenceClassifier, TransformerLm};
pub use trainer::{
    evaluate_classifier, evaluate_lm, train_classifier, train_lm, TrainOptions, TrainReport,
};
