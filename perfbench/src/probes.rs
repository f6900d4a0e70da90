//! Layer probes of the traced run: each times one layer's public entry
//! point in isolation, on the workload's own artifacts and arrivals. A
//! workload's own measurement of a layer, pushed before the probes', takes
//! precedence (the first metric of a name is the one reported).

use crate::artifacts::{Artifacts, VOCAB};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workloads::{fleet, ms, socket};
use crate::Metric;
use rt3_runtime::{
    pool, Analytic, BankedModel, CostConfig, CostModel, DeadlineScheduler, DeviceSnapshot,
    LatencyModel, Request, Router, RouterConfig, RoutingPolicy, SchedulerConfig,
};
use rt3_server::protocol::{ClientFrame, ServerFrame};
use rt3_server::{InferResponse, Status};
use rt3_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Probes a workload measures itself and so skips.
#[derive(Default, Clone, Copy)]
pub struct Skip {
    pub transformer: bool,
    pub socket: bool,
    pub fleet: bool,
}

const REPS: usize = 5;
const MICRO_CALLS: usize = 20_000;
/// Micro-batch sizes the pool probe times (the scheduler's `max_batch`).
const BATCHES: [usize; 4] = [1, 2, 3, 4];
const DEADLINE_BUDGET_MS: f64 = 400.0;
const PROBE_SEQ_LEN: usize = 24;

/// Runs every probe not in `skip`. `arrivals_ms` is the workload's arrival
/// schedule, replayed through a standalone scheduler.
pub fn run(
    art: &Artifacts,
    seed: u64,
    arrivals_ms: &[f64],
    tracer: &mut Tracer,
    skip: Skip,
) -> Result<Vec<Metric>, String> {
    let mut out = vec![
        Metric::new("core.level1_ms", "ms", art.level1_ms, 1),
        Metric::new("core.search_space_ms", "ms", art.search_space_ms, 1),
        Metric::new("core.level2_ms", "ms", art.level2_ms, 1),
        Metric::new(
            "search.evaluations",
            "count",
            art.outcome.history.len() as f64,
            1,
        ),
    ];
    let models = bank_probe(art, tracer, &mut out);
    pool_probe(&models, tracer, &mut out);
    sparse_probe(&models, tracer, &mut out);
    scheduler_probe(art, &models, arrivals_ms, tracer, &mut out);
    router_probe(tracer, &mut out);
    protocol_probe(tracer, &mut out);
    if !skip.transformer {
        transformer_probe(art, &models, tracer, &mut out);
    }
    if !skip.socket {
        out.extend(socket::probe(tracer)?);
    }
    if !skip.fleet {
        out.extend(fleet::probe(art, seed, tracer));
    }
    Ok(out)
}

/// `ModelBank::rebuild_cold` per level; returns the built variants.
fn bank_probe(art: &Artifacts, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Vec<BankedModel> {
    let bank = art.bank();
    let mut models = Vec::new();
    for level in 0..art.levels() {
        let mut walls = Vec::new();
        let mut built = None;
        for rep in 0..3 {
            let s = tracer.enter("runtime.bank.rebuild_cold", rep);
            let t = Instant::now();
            built = Some(bank.rebuild_cold(level));
            walls.push(ms(t));
            tracer.exit(s);
        }
        out.push(Metric::new(
            &format!("bank.build_ms.l{level}"),
            "ms",
            median(&walls),
            walls.len() as u64,
        ));
        models.push(built.expect("three builds ran"));
    }
    let stored: usize = models.iter().map(BankedModel::stored_values).sum();
    out.push(Metric::new(
        "bank.stored_mb",
        "MB",
        (stored * std::mem::size_of::<f32>()) as f64 / 1e6,
        models.len() as u64,
    ));
    models
}

/// `pool::time_batches` per micro-batch size, one worker, averaged over the
/// levels (median of [`REPS`] per level).
fn pool_probe(models: &[BankedModel], tracer: &mut Tracer, out: &mut Vec<Metric>) {
    for b in BATCHES {
        let per_level: Vec<f64> = models
            .iter()
            .map(|m| {
                let walls: Vec<f64> = (0..REPS)
                    .map(|rep| {
                        let s = tracer.enter("runtime.pool.time_batches", rep as u64);
                        let (outcome, wall) = pool::time_batches(m, &[b], 1);
                        black_box(outcome);
                        tracer.exit(s);
                        wall
                    })
                    .collect();
                median(&walls)
            })
            .collect();
        out.push(Metric::new(
            &format!("pool.batch_ms.b{b}"),
            "ms",
            mean(&per_level),
            (REPS * models.len()) as u64,
        ));
    }
}

/// `PatternPrunedMatrix::matmul_dense_into` over every banked weight of
/// every level at rhs widths 1–4. Operations and bytes are computed from
/// the tensor sizes: one multiply-add per stored value and rhs column;
/// stored values, rhs and output read or written once.
fn sparse_probe(models: &[BankedModel], tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let mut calls = 0usize;
    let mut macs = 0usize;
    let mut bytes = 0usize;
    let mut inputs = Vec::new();
    for m in models {
        for (_, w) in &m.weights {
            for width in BATCHES {
                let rhs = Matrix::from_fn(w.cols(), width, |r, c| {
                    ((r * 7 + c * 3) % 11) as f32 / 11.0 - 0.5
                });
                let out = Matrix::zeros(w.rows(), width);
                calls += 1;
                macs += w.stored_values() * width;
                bytes += 4 * (w.stored_values() + w.cols() * width + w.rows() * width);
                inputs.push((w, rhs, out));
            }
        }
    }
    let sweeps: Vec<f64> = (0..REPS)
        .map(|rep| {
            let s = tracer.enter("sparse.matmul_dense_into", rep as u64);
            let t = Instant::now();
            for (w, rhs, out) in inputs.iter_mut() {
                w.matmul_dense_into(black_box(rhs), out);
                black_box(&*out);
            }
            let wall = ms(t);
            tracer.exit(s);
            wall
        })
        .collect();
    let sweep_ms = median(&sweeps);
    let n = (REPS * calls) as u64;
    out.push(Metric::new(
        "sparse.matmul_us",
        "us",
        sweep_ms * 1e3 / calls as f64,
        n,
    ));
    out.push(Metric::new(
        "sparse.gmac_per_s",
        "GMAC/s",
        macs as f64 / (sweep_ms / 1e3) / 1e9,
        n,
    ));
    out.push(Metric::new(
        "sparse.bytes_per_call",
        "B",
        bytes as f64 / calls as f64,
        calls as u64,
    ));
}

/// A standalone `DeadlineScheduler` fed the workload's arrivals, with the
/// analytic cost model at the top level's banked sparsity; dispatch runs at
/// every 1 s window end, as the engine's does.
fn scheduler_probe(
    art: &Artifacts,
    models: &[BankedModel],
    arrivals_ms: &[f64],
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) {
    let cost = Analytic::new(
        LatencyModel {
            predictor: art.config.predictor,
            workload_config: art.config.workload_config.clone(),
            seq_len: art.config.seq_len,
        },
        CostConfig::default(),
    );
    let top = models.len() - 1;
    let level = art.config.governor.levels()[top];
    let base = cost.base_latency_ms(models[top].sparsity, &level);
    let service = |b: usize| cost.service_from_base_ms(top, base, b);
    let mut scheduler = DeadlineScheduler::new(SchedulerConfig::default());
    let (mut submit_ns, mut dispatch_ns, mut dispatches) = (0u128, 0u128, 0u64);
    let mut waits = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut rejected = 0u64;
    let s = tracer.enter("runtime.scheduler.replay", 0);
    let mut window_end = 1_000.0;
    let mut drain = |scheduler: &mut DeadlineScheduler, until: f64, ns: &mut u128| {
        let t = Instant::now();
        let done = scheduler.dispatch(until, top, service);
        *ns += t.elapsed().as_nanos();
        for c in &done {
            waits.push(c.start_ms - c.arrival_ms);
            batch_sizes.push(c.batch as f64);
        }
    };
    for (id, &arrival_ms) in arrivals_ms.iter().enumerate() {
        while arrival_ms >= window_end {
            drain(&mut scheduler, window_end, &mut dispatch_ns);
            dispatches += 1;
            window_end += 1_000.0;
        }
        let request = Request {
            id: id as u64,
            arrival_ms,
            deadline_ms: arrival_ms + DEADLINE_BUDGET_MS,
        };
        let t = Instant::now();
        let admitted = scheduler.submit(request, service);
        submit_ns += t.elapsed().as_nanos();
        rejected += u64::from(admitted.is_err());
    }
    drain(&mut scheduler, f64::INFINITY, &mut dispatch_ns);
    dispatches += 1;
    tracer.exit(s);
    let submits = arrivals_ms.len().max(1) as f64;
    out.extend([
        Metric::new(
            "scheduler.submit_us",
            "us",
            submit_ns as f64 / 1e3 / submits,
            arrivals_ms.len() as u64,
        ),
        Metric::new(
            "scheduler.dispatch_us",
            "us",
            dispatch_ns as f64 / 1e3 / dispatches as f64,
            dispatches,
        ),
        Metric::new(
            "scheduler.queue_wait_p50_ms",
            "ms",
            median(&waits),
            waits.len() as u64,
        ),
        Metric::new(
            "scheduler.queue_wait_tail_ms",
            "ms",
            crate::stats::quantile(&waits, 0.95),
            waits.len() as u64,
        ),
        Metric::new(
            "scheduler.batch_size",
            "count",
            mean(&batch_sizes),
            batch_sizes.len() as u64,
        ),
        Metric::new("scheduler.rejected", "count", rejected as f64, 1),
    ]);
}

/// `Router::order` under the predictive policy over four device snapshots.
fn router_probe(tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let router = Router::new(RouterConfig {
        policy: RoutingPolicy::Predictive,
        ..RouterConfig::default()
    });
    let snapshots: Vec<DeviceSnapshot> = (0..4)
        .map(|i| DeviceSnapshot {
            alive: true,
            state_of_charge: 1.0 - 0.2 * i as f64,
            level_pos: i % 3,
            levels: 3,
            queue_len: 3 * i,
            queue_capacity: 32,
            predicted_latency_ms: 40.0 + 10.0 * i as f64,
            deadline_budget_ms: 200.0,
            time_to_death_ms: 60_000.0 * (4 - i) as f64,
        })
        .collect();
    let s = tracer.enter("runtime.router.order", 0);
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        black_box(router.order(black_box(&snapshots)));
    }
    let wall = ms(t);
    tracer.exit(s);
    out.push(Metric::new(
        "router.order_us",
        "us",
        wall * 1e3 / MICRO_CALLS as f64,
        MICRO_CALLS as u64,
    ));
}

/// Frame codec: encode = one request plus one response body, decode = the
/// same two bodies parsed back, per request.
fn protocol_probe(tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let payload = [0u8; 64];
    let response = InferResponse {
        id: 7,
        status: Status::Completed,
        level_pos: 2,
        queue_ms: 1.5,
        infer_ms: 3.25,
    };
    let s = tracer.enter("server.protocol.encode", 0);
    let t = Instant::now();
    for id in 0..MICRO_CALLS as u64 {
        black_box(ClientFrame::encode_infer(id, DEADLINE_BUDGET_MS, &payload));
        black_box(black_box(&response).encode());
    }
    let encode_ms = ms(t);
    tracer.exit(s);
    let request = ClientFrame::encode_infer(7, DEADLINE_BUDGET_MS, &payload);
    let reply = response.encode();
    let s = tracer.enter("server.protocol.decode", 0);
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        black_box(ClientFrame::decode(black_box(&request)).ok());
        black_box(ServerFrame::decode(black_box(&reply)).ok());
    }
    let decode_ms = ms(t);
    tracer.exit(s);
    let per_call_ns = |wall_ms: f64| wall_ms * 1e6 / MICRO_CALLS as f64;
    out.push(Metric::new(
        "protocol.encode_ns",
        "ns",
        per_call_ns(encode_ms),
        MICRO_CALLS as u64,
    ));
    out.push(Metric::new(
        "protocol.decode_ns",
        "ns",
        per_call_ns(decode_ms),
        MICRO_CALLS as u64,
    ));
}

/// `TransformerLm::predict` per level and dense, on a fixed token sequence.
fn transformer_probe(
    art: &Artifacts,
    models: &[BankedModel],
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) {
    let tokens: Vec<usize> = (0..PROBE_SEQ_LEN).map(|i| (i * 37 + 11) % VOCAB).collect();
    let mut time = |masks| {
        let walls: Vec<f64> = (0..REPS)
            .map(|rep| {
                let s = tracer.enter("transformer.predict", rep as u64);
                let t = Instant::now();
                black_box(art.model.predict(&tokens, masks));
                let wall = ms(t);
                tracer.exit(s);
                wall
            })
            .collect();
        median(&walls)
    };
    let mut masked = Vec::new();
    for (level, m) in models.iter().enumerate() {
        let wall = time(Some(&m.masks));
        masked.push(wall);
        out.push(Metric::new(
            &format!("transformer.forward_ms.l{level}"),
            "ms",
            wall,
            REPS as u64,
        ));
    }
    let dense = time(None);
    out.push(Metric::new(
        "transformer.forward_dense_ms",
        "ms",
        dense,
        REPS as u64,
    ));
    out.push(Metric::new(
        "transformer.masked_over_dense",
        "ratio",
        mean(&masked) / dense,
        REPS as u64,
    ));
}
