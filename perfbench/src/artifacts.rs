//! The offline artifacts `bursty-real`, `fleet-storm` and `forward` share:
//! the paper Transformer, the Level-1 backbone and the Level-2 search
//! outcome, built exactly as the `serve_trace` example builds them.

use crate::trace::Tracer;
use rt3_core::{
    build_search_space, run_level1, run_level2_search, BackboneResult, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_hardware::MemoryModel;
use rt3_pruning::PatternSpace;
use rt3_runtime::ModelBank;
use rt3_transformer::{TransformerConfig, TransformerLm};
use std::time::Instant;

pub const VOCAB: usize = 512;
const MODEL_SEED: u64 = 7;

pub struct Artifacts {
    pub model: TransformerLm,
    pub config: Rt3Config,
    pub backbone: BackboneResult,
    pub space: PatternSpace,
    pub outcome: SearchOutcome,
    pub level1_ms: f64,
    pub search_space_ms: f64,
    pub level2_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Artifacts {
    /// Runs the offline pipeline: model construction, Level 1 (block
    /// pruning), the pattern search space and Level 2 (pattern sets per
    /// V/F level).
    pub fn build(tracer: &mut Tracer) -> Self {
        let span = tracer.enter("core.offline", 0);
        let mut config = Rt3Config::wikitext_default();
        config.timing_constraint_ms = 115.0;
        config.episodes = 20;
        let s = tracer.enter("transformer.new", 0);
        let model = TransformerLm::new(TransformerConfig::paper_transformer(VOCAB), MODEL_SEED);
        tracer.exit(s);
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());

        let t = Instant::now();
        let s = tracer.enter("core.level1", 0);
        let backbone = run_level1(&model, &config, &mut evaluator);
        tracer.exit(s);
        let level1_ms = ms_since(t);

        let t = Instant::now();
        let s = tracer.enter("core.search_space", 0);
        let space = build_search_space(&model, &backbone, &config);
        tracer.exit(s);
        let search_space_ms = ms_since(t);

        let t = Instant::now();
        let s = tracer.enter("core.level2", 0);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        tracer.exit(s);
        let level2_ms = ms_since(t);
        tracer.exit(span);
        Self {
            model,
            config,
            backbone,
            space,
            outcome,
            level1_ms,
            search_space_ms,
            level2_ms,
        }
    }

    pub fn levels(&self) -> usize {
        self.config.governor.levels().len()
    }

    /// A fresh, cold model bank over the search's best solution, one
    /// resident variant per governor level.
    pub fn bank(&self) -> ModelBank<'_, TransformerLm> {
        let best = self
            .outcome
            .best
            .as_ref()
            .expect("the offline search found a feasible solution");
        ModelBank::new(
            &self.model,
            self.backbone.masks.clone(),
            &self.space,
            &best.actions,
            MemoryModel::odroid_xu3(),
            self.levels(),
        )
    }
}
