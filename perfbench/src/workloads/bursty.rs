//! `bursty-real`: the paper's served path. `ServeEngine::run` replays the
//! default bursty trace (90 simulated s at 30/60 req/s, 29 J battery,
//! adaptive policy) with real sparse inference on the worker pool; the bank
//! stays warm across replays, so each replay reads the bank and never
//! builds it.

use super::{ms, overhead_share, repeat_for, secs, timed_metrics, TRACED_PASS_SHARE};
use crate::artifacts::Artifacts;
use crate::speed::{HostSpeed, Reference};
use crate::trace::Tracer;
use crate::{probes, Args, Metric, Outcome, SETUPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_runtime::{
    RuntimePolicy, Scenario, ServeConfig, ServeEngine, ServeReport, TelemetryConfig,
};
use rt3_transformer::TransformerLm;
use std::time::{Duration, Instant};

/// Tail quantile of the replay time.
const TAIL_Q: f64 = 0.8;
/// Replays a run makes at least: the faster half, 50, supports p80.
const MIN_REPLAYS: usize = 100;

fn serve_config(seed: u64, telemetry: TelemetryConfig) -> ServeConfig {
    ServeConfig {
        battery_capacity_j: 29.0,
        deadline_budget_ms: 400.0,
        policy: RuntimePolicy::Adaptive,
        real_inference: true,
        seed,
        telemetry,
        ..ServeConfig::default()
    }
}

fn engine<'a>(art: &'a Artifacts, config: ServeConfig) -> ServeEngine<'a, TransformerLm> {
    ServeEngine::new(
        &art.model,
        art.backbone.masks.clone(),
        &art.space,
        &art.outcome,
        art.config.clone(),
        config,
    )
}

/// Requests that arrived but were not served.
fn unserved(r: &ServeReport) -> u64 {
    r.rejected + r.dropped_dead_battery + r.dropped_at_trace_end
}

/// Checks a replay against the reference replay: the simulation is a
/// function of the seed, and the pool checksum is bit-stable.
fn check_replay(out: &mut Outcome, reference: &ServeReport, r: &ServeReport, i: usize) {
    out.check(r.arrivals == r.completed + unserved(r), || {
        format!(
            "replay {i}: arrivals {} != completed {} + rejected {} + dropped {} + {}",
            r.arrivals, r.completed, r.rejected, r.dropped_dead_battery, r.dropped_at_trace_end
        )
    });
    out.check(
        r.inference_checksum.to_bits() == reference.inference_checksum.to_bits(),
        || {
            format!(
                "replay {i}: inference checksum {} != {}",
                r.inference_checksum, reference.inference_checksum
            )
        },
    );
    let sim = |r: &ServeReport| {
        (
            r.arrivals,
            r.completed,
            r.missed_deadline,
            r.switches,
            r.real_batches,
            r.total_energy_j().to_bits(),
            r.runs_per_level.clone(),
        )
    };
    out.check(sim(r) == sim(reference), || {
        format!("replay {i}: simulated outcome differs from the first replay")
    });
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let scenario = Scenario::default_bursty();
    let mut speed = HostSpeed::new(Reference::Compute {
        threads: HostSpeed::pool_threads(),
    });
    let mut setup_s = Vec::new();
    speed.start();
    for i in 0..SETUPS {
        let t = Instant::now();
        let art = Artifacts::build(tracer);
        let mut engine = engine(&art, serve_config(args.seed, TelemetryConfig::default()));
        let s = tracer.enter("bursty.warmup", i as u64);
        let reference = engine.run(&scenario);
        tracer.exit(s);
        setup_s.push(secs(t) * speed.factor());
        if i + 1 == SETUPS {
            return measure(args, tracer, &mut speed, &art, engine, reference, setup_s);
        }
    }
    unreachable!("SETUPS is positive")
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
    art: &Artifacts,
    mut engine: ServeEngine<'_, TransformerLm>,
    reference: ServeReport,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let scenario = Scenario::default_bursty();
    let mut out = Outcome::default();
    out.check(reference.real_batches > 0, || {
        "no batch ran on the pool".into()
    });
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let pass = if args.trace { TRACED_PASS_SHARE } else { 1.0 };
    let timings = repeat_for(
        budget(pass),
        if args.trace { 3 } else { MIN_REPLAYS },
        1,
        speed,
        |i| {
            let r = engine.run(&scenario);
            check_replay(&mut out, &reference, &r, i);
            Ok(())
        },
    )?;
    out.attempted = timings.wall_ms.len() as u64;
    timed_metrics(
        &mut out,
        &setup_s,
        &timings,
        reference.completed as f64,
        1,
        TAIL_Q,
        speed,
        args.trace,
    )?;
    let r = &reference;
    out.extra.extend([
        Metric::new(
            "error_rate",
            "share",
            unserved(r) as f64 / r.arrivals as f64,
            r.arrivals,
        ),
        Metric::new("miss_rate", "share", r.miss_rate(), r.arrivals),
        Metric::new(
            "energy_per_req_mj",
            "mJ",
            r.total_energy_j() * 1e3 / r.completed as f64,
            r.completed,
        ),
    ]);
    out.info.extend([
        ("requests_per_replay".into(), r.arrivals.to_string()),
        (
            "inference_checksum".into(),
            format!("{:.6}", r.inference_checksum),
        ),
        ("switches".into(), r.switches.to_string()),
        ("sim_latency_p50_ms".into(), format!("{:.3}", r.p50_ms())),
        ("sim_latency_p95_ms".into(), format!("{:.3}", r.p95_ms())),
    ]);

    if args.trace {
        traced(args, tracer, speed, art, &timings.scaled_ms, &mut out)?;
        let arrivals = arrival_times(&scenario, args.seed);
        out.layers.extend(probes::run(
            art,
            args.seed,
            &arrivals,
            tracer,
            probes::Skip::default(),
        )?);
    }
    Ok(out)
}

/// The traced pass: a second engine with the program's full telemetry on,
/// replays under spans, layer counts read from the telemetry snapshot.
fn traced(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
    art: &Artifacts,
    untraced_walls: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds * TRACED_PASS_SHARE);
    let scenario = Scenario::default_bursty();
    let mut engine = engine(art, serve_config(args.seed, TelemetryConfig::full()));
    engine.run(&scenario);
    let builds_before = engine.bank().stats().builds;
    let mut last = None;
    let mut replays = 0u64;
    let timings = repeat_for(budget, 3, 1, speed, |i| {
        let s = tracer.enter("runtime.engine.run", i as u64);
        let t = Instant::now();
        let r = engine.run(&scenario);
        let wall = ms(t);
        tracer.exit(s);
        replays += 1;
        last = Some((r, wall));
        Ok(())
    })?;
    let builds = engine.bank().stats().builds - builds_before;
    let (r, wall) = last.expect("at least one traced replay");
    let snap = r
        .telemetry
        .as_ref()
        .ok_or("full telemetry attaches a snapshot")?;
    let hist = |name: &str| {
        snap.metrics
            .histogram(name)
            .ok_or_else(|| format!("telemetry has no {name} histogram"))
    };
    let pool_ms = hist("pool_batch_wall_ms")?.sum();
    let wait = hist("queue_wait_ms")?;
    out.layers.extend([
        Metric::new(
            "bank.builds",
            "count",
            builds as f64 / replays as f64,
            replays,
        ),
        Metric::new("pool.batches", "count", r.real_batches as f64, 1),
        Metric::new("pool.busy_share", "share", pool_ms / wall, 1),
        Metric::new(
            "scheduler.queue_wait_p50_ms",
            "ms",
            wait.quantile(0.5),
            wait.count(),
        ),
        Metric::new(
            "scheduler.queue_wait_tail_ms",
            "ms",
            wait.quantile(0.95),
            wait.count(),
        ),
        Metric::new(
            "scheduler.batch_size",
            "count",
            hist("batch_size")?.mean(),
            1,
        ),
        Metric::new("scheduler.rejected", "count", r.rejected as f64, 1),
        Metric::new("controller.switches", "count", r.switches as f64, 1),
        Metric::new("controller.switch_ms", "ms", r.switch_time_ms, r.switches),
        Metric::new(
            "telemetry.overhead_share",
            "share",
            overhead_share(untraced_walls, &timings.scaled_ms),
            timings.scaled_ms.len() as u64,
        ),
    ]);
    Ok(())
}

/// The trace's arrival times, drawn as the engine draws them.
pub fn arrival_times(scenario: &Scenario, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..scenario.duration_s())
        .flat_map(|t| {
            scenario
                .arrivals_in_second(t, &mut rng)
                .into_iter()
                .map(move |o| t as f64 * 1e3 + o)
        })
        .collect()
}
