//! The tape-free inference forward against the autograd tape: for any
//! model, sequence length and masks, `infer_logits` must be bit-identical
//! to `logits` on a [`Graph`] bound with the same masks, and the `predict*`
//! methods built on it must return what the tape's values give.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_tensor::{Graph, Matrix};
use rt3_transformer::{MaskSet, Model, SequenceClassifier, TransformerConfig, TransformerLm};

/// Random masks over every parameter, prunable or not (embeddings, biases
/// and `gamma`/`beta` included, as `ParamBindings::bind` applies them
/// all): each parameter is masked with probability `coverage`, by an
/// all-zero, an all-one or a random mask of random density.
fn random_masks(model: &impl Model, seed: u64, coverage: f64) -> MaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masks = MaskSet::new();
    for (name, param) in model.parameters() {
        if !rng.gen_bool(coverage) {
            continue;
        }
        let (rows, cols) = param.shape();
        let mask = match rng.gen_range(0..4u32) {
            0 => Matrix::zeros(rows, cols),
            1 => Matrix::filled(rows, cols, 1.0),
            _ => {
                let density = rng.gen_range(0.0..1.0);
                Matrix::from_fn(
                    rows,
                    cols,
                    |_, _| {
                        if rng.gen_bool(density) {
                            1.0
                        } else {
                            0.0
                        }
                    },
                )
            }
        };
        masks.insert(name, mask);
    }
    masks
}

fn tokens(seed: u64, len: usize, vocab: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn tape_lm_logits(model: &TransformerLm, tokens: &[usize], masks: Option<&MaskSet>) -> Matrix {
    let mut g = Graph::new();
    let bindings = model.bind(&mut g, masks);
    let logits = model.logits(&mut g, &bindings, tokens);
    g.value(logits).clone()
}

fn tape_classifier_logits(
    model: &SequenceClassifier,
    tokens: &[usize],
    masks: Option<&MaskSet>,
) -> Matrix {
    let mut g = Graph::new();
    let bindings = model.bind(&mut g, masks);
    let logits = model.logits(&mut g, &bindings, tokens);
    g.value(logits).clone()
}

/// A small configuration with the given head and layer counts.
fn config(heads: usize, encoders: usize, decoders: usize) -> TransformerConfig {
    TransformerConfig {
        num_heads: heads,
        num_encoder_layers: encoders,
        num_decoder_layers: decoders,
        ..TransformerConfig::tiny(40)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lm_inference_logits_are_bit_identical_to_the_tape(
        model_seed in 0u64..10_000,
        heads in prop_oneof![Just(1usize), Just(2), Just(4)],
        encoders in 0usize..3,
        decoders in 1usize..3,
        len in 1usize..=32,
        token_seed in 0u64..10_000,
        mask_seed in 0u64..10_000,
        coverage in 0.0f64..1.0,
    ) {
        let model = TransformerLm::new(config(heads, encoders, decoders), model_seed);
        prop_assert!(len <= model.config().max_seq_len);
        let tokens = tokens(token_seed, len, model.config().vocab_size);
        let masks = random_masks(&model, mask_seed, coverage);
        for masks in [None, Some(&masks)] {
            let tape = tape_lm_logits(&model, &tokens, masks);
            let inferred = model.infer_logits(&tokens, masks);
            prop_assert_eq!(inferred.shape(), tape.shape());
            prop_assert!(bits(&inferred) == bits(&tape), "logits differ from the tape");
            let argmax: Vec<usize> = (0..tape.rows()).map(|r| tape.row_argmax(r)).collect();
            prop_assert_eq!(model.predict(&tokens, masks), argmax);
        }
    }

    #[test]
    fn classifier_inference_matches_the_tape(
        model_seed in 0u64..10_000,
        outputs in 1usize..4,
        encoders in 1usize..3,
        len in 1usize..=32,
        token_seed in 0u64..10_000,
        mask_seed in 0u64..10_000,
        coverage in 0.0f64..1.0,
    ) {
        let model = SequenceClassifier::new(config(2, encoders, 0), outputs, model_seed);
        let tokens = tokens(token_seed, len, model.config().vocab_size);
        let masks = random_masks(&model, mask_seed, coverage);
        for masks in [None, Some(&masks)] {
            let tape = tape_classifier_logits(&model, &tokens, masks);
            let inferred = model.infer_logits(&tokens, masks);
            prop_assert!(bits(&inferred) == bits(&tape), "logits differ from the tape");
            prop_assert_eq!(model.predict_class(&tokens, masks), tape.row_argmax(0));
            prop_assert_eq!(
                model.predict_score(&tokens, masks).to_bits(),
                (tape.get(0, 0) * 5.0).to_bits()
            );
        }
    }
}

/// The paper-shaped model from one position up to `max_seq_len`, dense and
/// with masks on the prunable weights only (the properties above sweep
/// every length of the small configurations).
#[test]
fn paper_transformer_logits_are_bit_identical() {
    let model = TransformerLm::new(TransformerConfig::paper_transformer(64), 7);
    let mut rng = StdRng::seed_from_u64(11);
    let mut masks = MaskSet::new();
    for name in model.prunable_parameter_names() {
        let (rows, cols) = model.parameter(&name).unwrap().shape();
        masks.insert(
            name,
            Matrix::from_fn(rows, cols, |_, _| if rng.gen_bool(0.3) { 1.0 } else { 0.0 }),
        );
    }
    for len in [1, 2, 5, 24, model.config().max_seq_len] {
        let tokens = tokens(len as u64, len, model.config().vocab_size);
        for masks in [None, Some(&masks)] {
            let tape = tape_lm_logits(&model, &tokens, masks);
            assert_eq!(
                bits(&model.infer_logits(&tokens, masks)),
                bits(&tape),
                "length {len}, masked {}",
                masks.is_some()
            );
        }
    }
}

#[test]
#[should_panic(expected = "exceeds max_seq_len")]
fn predict_rejects_overlong_sequences() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 1);
    model.predict(&[1; 33], None);
}

#[test]
#[should_panic(expected = "must not be empty")]
fn predict_rejects_empty_sequences() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 1);
    model.predict(&[], None);
}

#[test]
#[should_panic(expected = "gather index 32 out of bounds")]
fn predict_rejects_out_of_vocabulary_tokens() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 1);
    model.predict(&[1, 32], None);
}

#[test]
#[should_panic(expected = "mask shape mismatch for parameter encoder.0.ffn.w1")]
fn predict_rejects_misshapen_masks() {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 1);
    let mut masks = MaskSet::new();
    masks.insert("encoder.0.ffn.w1", Matrix::zeros(2, 2));
    model.predict(&[1, 2], Some(&masks));
}

#[test]
#[should_panic(expected = "mask shape mismatch for parameter token_embedding")]
fn predict_class_rejects_misshapen_masks() {
    let model = SequenceClassifier::new(TransformerConfig::tiny(32), 2, 1);
    let mut masks = MaskSet::new();
    masks.insert("token_embedding", Matrix::zeros(1, 1));
    model.predict_class(&[1, 2], Some(&masks));
}

#[test]
#[should_panic(expected = "exceeds max_seq_len")]
fn predict_score_rejects_overlong_sequences() {
    let model = SequenceClassifier::new(TransformerConfig::tiny(32), 1, 1);
    model.predict_score(&[1; 33], None);
}
