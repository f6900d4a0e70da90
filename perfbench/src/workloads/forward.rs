//! `forward`: the only real forward pass of the pruned model.
//! `TransformerLm::predict` on length-24 token sequences drawn from the
//! seed, with the masks of each of the 3 bank levels and dense (no masks)
//! as the reference, in rotation.

use super::{ms, overhead_share, secs, splitmix, timed_metrics, Timings, TRACED_PASS_SHARE};
use crate::artifacts::{Artifacts, VOCAB};
use crate::speed::{HostSpeed, Reference};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{probes, Args, Metric, Outcome, SETUPS};
use rt3_runtime::Scenario;
use rt3_tensor::Graph;
use rt3_transformer::{MaskSet, Model, ParamBindings, TransformerLm};
use std::time::{Duration, Instant};

const SEQ_LEN: usize = 24;
const SEQUENCES: usize = 16;
const TAIL_Q: f64 = 0.9;
const MIN_CALLS: usize = 1_400;
/// Calls between two samples of the host's speed (about 0.2 s): a
/// multiple of the four configurations, so every window holds each alike.
const SPEED_WINDOW: usize = 64;
/// Span names of the four configurations: the bank levels, then dense.
const SPANS: [&str; 4] = [
    "transformer.predict.l0",
    "transformer.predict.l1",
    "transformer.predict.l2",
    "transformer.predict.dense",
];

fn sequences(seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed;
    (0..SEQUENCES)
        .map(|_| {
            (0..SEQ_LEN)
                .map(|_| (splitmix(&mut state) % VOCAB as u64) as usize)
                .collect()
        })
        .collect()
}

/// FNV-1a over predicted tokens.
fn digest(predictions: &[Vec<usize>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for token in predictions.iter().flatten() {
        for byte in (*token as u32).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn logits_finite(model: &TransformerLm, tokens: &[usize], masks: Option<&MaskSet>) -> bool {
    let mut g = Graph::new();
    let bindings = ParamBindings::bind(&mut g, &model.parameters(), masks);
    let logits = model.logits(&mut g, &bindings, tokens);
    g.value(logits).as_slice().iter().all(|v| v.is_finite())
}

struct Ready<'a> {
    art: &'a Artifacts,
    masks: Vec<MaskSet>,
    seqs: Vec<Vec<usize>>,
    /// Reference predictions, `[config][sequence]`.
    reference: Vec<Vec<Vec<usize>>>,
}

impl Ready<'_> {
    fn masks(&self, config: usize) -> Option<&MaskSet> {
        self.masks.get(config)
    }

    /// Calls `predict` in rotation (each sequence under every config) until
    /// `budget` has passed; returns each call's config and its times, in
    /// call order.
    fn rotate(
        &self,
        budget: Duration,
        min_calls: usize,
        speed: &mut HostSpeed,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Vec<(usize, f64, f64)> {
        let start = Instant::now();
        let mut calls = Vec::new();
        let mut walls = [0.0; SPEED_WINDOW];
        speed.start();
        while calls.len() < min_calls || start.elapsed() < budget {
            for wall in &mut walls {
                let i = calls.len();
                let config = i % SPANS.len();
                let seq = (i / SPANS.len()) % self.seqs.len();
                let s = tracer.enter(SPANS[config], i as u64);
                let t = Instant::now();
                let predicted = self.art.model.predict(&self.seqs[seq], self.masks(config));
                *wall = ms(t);
                tracer.exit(s);
                calls.push((config, *wall, 0.0));
                out.attempted += 1;
                if predicted.len() != SEQ_LEN || predicted.iter().any(|&t| t >= VOCAB) {
                    out.failed += 1;
                }
                out.check(predicted == self.reference[config][seq], || {
                    format!(
                        "call {i}: {} prediction of sequence {seq} changed",
                        SPANS[config]
                    )
                });
            }
            let factor = speed.factor();
            let window = calls.len() - SPEED_WINDOW..;
            for call in &mut calls[window] {
                call.2 = call.1 * factor;
            }
        }
        calls
    }
}

/// The times of the calls whose config `keep` accepts, in call order.
fn timings(calls: &[(usize, f64, f64)], keep: impl Fn(usize) -> bool) -> Timings {
    let mut t = Timings::default();
    for &(_, wall, scaled) in calls.iter().filter(|c| keep(c.0)) {
        t.wall_ms.push(wall);
        t.scaled_ms.push(scaled);
    }
    t
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut speed = HostSpeed::new(Reference::FreshMemory);
    let mut setup_s = Vec::new();
    speed.start();
    for i in 0..SETUPS {
        let t = Instant::now();
        let art = Artifacts::build(tracer);
        let s = tracer.enter("forward.warmup", i as u64);
        let mut bank = art.bank();
        let masks: Vec<MaskSet> = (0..art.levels())
            .map(|l| bank.get(l).masks.clone())
            .collect();
        let seqs = sequences(args.seed);
        let mut ready = Ready {
            art: &art,
            masks,
            seqs,
            reference: Vec::new(),
        };
        ready.reference = (0..SPANS.len())
            .map(|c| {
                ready
                    .seqs
                    .iter()
                    .map(|seq| art.model.predict(seq, ready.masks(c)))
                    .collect()
            })
            .collect();
        tracer.exit(s);
        setup_s.push(secs(t) * speed.factor());
        if i + 1 == SETUPS {
            return measure(args, tracer, &mut speed, &ready, setup_s);
        }
    }
    unreachable!("SETUPS is positive")
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
    ready: &Ready<'_>,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    assert_eq!(
        ready.masks.len() + 1,
        SPANS.len(),
        "three bank levels plus dense"
    );
    let mut out = Outcome::default();
    for (c, name) in SPANS.iter().enumerate() {
        out.check(
            logits_finite(&ready.art.model, &ready.seqs[0], ready.masks(c)),
            || format!("{name} logits are not finite"),
        );
    }
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let pass = if args.trace { TRACED_PASS_SHARE } else { 1.0 };
    let mut quiet = Tracer::new(false);
    let calls = ready.rotate(
        budget(pass),
        if args.trace { SPANS.len() } else { MIN_CALLS },
        speed,
        &mut quiet,
        &mut out,
    );
    // the served levels only: dense is the reference the per-layer
    // `transformer.masked_over_dense` compares against
    let levels = ready.masks.len();
    let masked = timings(&calls, |c| c < levels);
    // a speed window holds SPEED_WINDOW / SPANS.len() calls of each config
    let window = SPEED_WINDOW / SPANS.len() * levels;
    timed_metrics(
        &mut out, &setup_s, &masked, 1.0, window, TAIL_Q, speed, args.trace,
    )?;
    out.extra.push(Metric::new(
        "error_rate",
        "share",
        out.failed as f64 / out.attempted as f64,
        out.attempted,
    ));
    for (c, name) in SPANS.iter().enumerate() {
        let config = name.trim_start_matches("transformer.predict.");
        out.info.push((
            format!("digest.{config}"),
            format!("{:016x}", digest(&ready.reference[c])),
        ));
    }
    if args.trace {
        let traced = ready.rotate(
            budget(TRACED_PASS_SHARE),
            SPANS.len(),
            speed,
            tracer,
            &mut out,
        );
        let walls = |c: usize| timings(&traced, |k| k == c).wall_ms;
        let per_level: Vec<f64> = (0..levels).map(|l| median(&walls(l))).collect();
        for (l, wall) in per_level.iter().enumerate() {
            out.layers.push(Metric::new(
                &format!("transformer.forward_ms.l{l}"),
                "ms",
                *wall,
                walls(l).len() as u64,
            ));
        }
        let dense = walls(levels);
        let traced_masked = timings(&traced, |c| c < levels);
        out.layers.extend([
            Metric::new(
                "transformer.forward_dense_ms",
                "ms",
                median(&dense),
                dense.len() as u64,
            ),
            Metric::new(
                "transformer.masked_over_dense",
                "ratio",
                crate::stats::mean(&per_level) / median(&dense),
                traced_masked.wall_ms.len() as u64,
            ),
            Metric::new(
                "telemetry.overhead_share",
                "share",
                overhead_share(&masked.scaled_ms, &traced_masked.scaled_ms),
                traced_masked.scaled_ms.len() as u64,
            ),
        ]);
        let arrivals = super::bursty::arrival_times(&Scenario::default_bursty(), args.seed);
        let skip = probes::Skip {
            transformer: true,
            ..probes::Skip::default()
        };
        out.layers
            .extend(probes::run(ready.art, args.seed, &arrivals, tracer, skip)?);
    }
    Ok(out)
}
