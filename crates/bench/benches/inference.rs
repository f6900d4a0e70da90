//! Criterion bench: one forward pass of the live Transformer LM, dense vs
//! masked, on both forwards — `predict` (the tape-free inference path) and
//! `logits()` on an autograd `Graph` (the tape training and search use) —
//! plus the analytical latency predictor across V/F levels.
//!
//! Set `BENCH_QUICK=1` (CI) to shrink the sample counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rt3_hardware::{ModelWorkload, PerformancePredictor, VfLevel};
use rt3_pruning::{block_prune_model, BlockPruningConfig};
use rt3_sparse::SparseFormat;
use rt3_tensor::Graph;
use rt3_transformer::{MaskSet, Model, TransformerConfig, TransformerLm};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

/// Logits of one sequence through the tape, as training binds them.
fn graph_logits(model: &TransformerLm, tokens: &[usize], masks: Option<&MaskSet>) -> f32 {
    let mut g = Graph::new();
    let bindings = model.bind(&mut g, masks);
    let logits = model.logits(&mut g, &bindings, tokens);
    g.value(logits).get(0, 0)
}

fn bench_inference(c: &mut Criterion) {
    let model = TransformerLm::new(TransformerConfig::paper_transformer(256), 2);
    let masks = block_prune_model(&model, &BlockPruningConfig::default());
    let tokens: Vec<usize> = (1..25).collect();
    let mut group = c.benchmark_group("inference");
    group.sample_size(if quick() { 3 } else { 10 });
    group.bench_function("forward_dense_seq24", |b| {
        b.iter(|| model.predict(&tokens, None))
    });
    group.bench_function("forward_bp_masked_seq24", |b| {
        b.iter(|| model.predict(&tokens, Some(&masks)))
    });
    group.bench_function("graph_dense_seq24", |b| {
        b.iter(|| graph_logits(&model, &tokens, None))
    });
    group.bench_function("graph_bp_masked_seq24", |b| {
        b.iter(|| graph_logits(&model, &tokens, Some(&masks)))
    });
    let predictor = PerformancePredictor::cortex_a7();
    let config = TransformerConfig::distilbert_full(30522);
    group.bench_function("latency_prediction_all_levels", |b| {
        b.iter(|| {
            VfLevel::odroid_xu3_a7()
                .iter()
                .map(|l| {
                    let w = ModelWorkload::from_config(&config, 0.6, 64, SparseFormat::BlockPruned);
                    predictor.latency_ms(&w, l)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
