//! `fleet-storm`: `Fleet::run_chaos` on the retry storm (4 devices, 60
//! simulated s, closed-loop retrying clients, predictive routing) with
//! simulated inference. Every replay builds a fresh fleet, so each device's
//! bank builds cold: the bank's write path, beside `bursty-real`'s read
//! path, with router, scheduler backlog replay, controller, clients and
//! counter telemetry around it. No kernel runs.

use super::{overhead_share, repeat_for, secs, timed_metrics, TRACED_PASS_SHARE};
use crate::artifacts::Artifacts;
use crate::speed::{HostSpeed, Reference};
use crate::trace::Tracer;
use crate::{probes, Args, Metric, Outcome, SETUPS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_runtime::{
    check_invariants, ChaosReport, ChaosScenario, Fleet, RoutingPolicy, Scenario, TelemetryConfig,
};
use std::time::{Duration, Instant};

const TAIL_Q: f64 = 0.9;
/// Replays between two samples of the host's speed (about 0.2 s).
const SPEED_WINDOW: usize = 16;
const MIN_REPLAYS: usize = 100;

fn replay(
    art: &Artifacts,
    chaos: &ChaosScenario,
    seed: u64,
    telemetry: Option<TelemetryConfig>,
) -> ChaosReport {
    let mut config = ChaosScenario::storm_fleet_config(RoutingPolicy::Predictive, seed);
    if let Some(t) = telemetry {
        config.telemetry = t;
    }
    let fleet = Fleet::new(
        &art.model,
        art.backbone.masks.clone(),
        &art.space,
        &art.outcome,
        &art.config,
        &chaos.fleet_scenario(),
        config,
    );
    fleet.run_chaos(chaos)
}

/// Attempts that reached an outcome before the trace ended.
fn resolved(r: &ChaosReport) -> u64 {
    let c = &r.clients;
    c.attempt_completed + c.attempt_late + c.attempt_rejected + c.attempt_dropped_dead
}

fn check_replay(
    out: &mut Outcome,
    chaos: &ChaosScenario,
    reference: &ChaosReport,
    r: &ChaosReport,
    i: usize,
) {
    let c = &r.clients;
    out.check(c.attempts == c.jobs + c.retries, || {
        format!(
            "replay {i}: attempts {} != jobs {} + retries {}",
            c.attempts, c.jobs, c.retries
        )
    });
    out.check(resolved(r) + c.attempt_outstanding == c.attempts, || {
        format!(
            "replay {i}: attempt outcomes do not sum to {} attempts",
            c.attempts
        )
    });
    if let Err(violations) = check_invariants(chaos, r) {
        out.violations
            .extend(violations.into_iter().map(|v| format!("replay {i}: {v}")));
    }
    let mut scrubbed = r.clone();
    scrubbed.scrub_wall_clock();
    out.check(&scrubbed == reference, || {
        format!("replay {i}: simulated outcome differs from the first replay")
    });
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let chaos = ChaosScenario::retry_storm();
    let mut speed = HostSpeed::new(Reference::Compute { threads: 1 });
    let mut setup_s = Vec::new();
    speed.start();
    for i in 0..SETUPS {
        let t = Instant::now();
        let art = Artifacts::build(tracer);
        let s = tracer.enter("fleet.warmup", i as u64);
        let mut reference = replay(&art, &chaos, args.seed, None);
        tracer.exit(s);
        setup_s.push(secs(t) * speed.factor());
        if i + 1 == SETUPS {
            reference.scrub_wall_clock();
            return measure(args, tracer, &mut speed, &art, &chaos, reference, setup_s);
        }
    }
    unreachable!("SETUPS is positive")
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
    art: &Artifacts,
    chaos: &ChaosScenario,
    reference: ChaosReport,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let pass = if args.trace { TRACED_PASS_SHARE } else { 1.0 };
    let timings = repeat_for(
        budget(pass),
        if args.trace { 3 } else { MIN_REPLAYS },
        SPEED_WINDOW,
        speed,
        |i| {
            let r = replay(art, chaos, args.seed, None);
            check_replay(&mut out, chaos, &reference, &r, i);
            Ok(())
        },
    )?;
    out.attempted = timings.wall_ms.len() as u64;
    timed_metrics(
        &mut out,
        &setup_s,
        &timings,
        resolved(&reference) as f64,
        SPEED_WINDOW,
        TAIL_Q,
        speed,
        args.trace,
    )?;
    let r = &reference;
    let c = &r.clients;
    let completed = r.fleet.completed();
    out.extra.extend([
        Metric::new("error_rate", "share", c.abandon_rate(), c.jobs),
        Metric::new("miss_rate", "share", r.fleet.miss_rate(), r.fleet.arrivals),
        Metric::new(
            "energy_per_req_mj",
            "mJ",
            r.fleet.total_energy_j() * 1e3 / completed as f64,
            completed,
        ),
        Metric::new(
            "retry_amplification",
            "ratio",
            c.retry_amplification(),
            c.jobs,
        ),
    ]);
    out.info.extend([
        ("attempts_per_replay".into(), c.attempts.to_string()),
        ("clients".into(), c.summary()),
        ("fleet".into(), r.fleet.summary()),
    ]);
    if args.trace {
        traced(
            args,
            tracer,
            speed,
            art,
            chaos,
            &timings.scaled_ms,
            &mut out,
        )?;
        let arrivals = arrival_times(chaos, args.seed);
        out.layers.extend(probes::run(
            art,
            args.seed,
            &arrivals,
            tracer,
            probes::Skip {
                fleet: true,
                ..probes::Skip::default()
            },
        )?);
    }
    Ok(out)
}

fn traced(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut HostSpeed,
    art: &Artifacts,
    chaos: &ChaosScenario,
    untraced_walls: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds * TRACED_PASS_SHARE);
    let mut last = None;
    let timings = repeat_for(budget, 3, 1, speed, |i| {
        let s = tracer.enter("runtime.fleet.replay", i as u64);
        let r = replay(art, chaos, args.seed, Some(TelemetryConfig::full()));
        tracer.exit(s);
        last = Some(r);
        Ok(())
    })?;
    let r = last.expect("at least one traced replay");
    let snap = r
        .fleet
        .merged_device_telemetry()
        .ok_or("full telemetry attaches device snapshots")?;
    let m = &snap.metrics;
    let hist = |name: &str| {
        m.histogram(name)
            .ok_or_else(|| format!("telemetry has no {name} histogram"))
    };
    let wait = hist("queue_wait_ms")?;
    let switch_ms: f64 = r.fleet.devices.iter().map(|d| d.switch_time_ms).sum();
    let rejected: u64 = r.fleet.devices.iter().map(|d| d.rejected).sum();
    out.layers.extend([
        Metric::new(
            "bank.builds",
            "count",
            m.counter("bank_builds").unwrap_or(0) as f64,
            1,
        ),
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
        Metric::new("scheduler.rejected", "count", rejected as f64, 1),
        Metric::new(
            "controller.switches",
            "count",
            r.fleet.total_switches() as f64,
            1,
        ),
        Metric::new(
            "controller.switch_ms",
            "ms",
            switch_ms,
            r.fleet.total_switches(),
        ),
        Metric::new("router.unroutable", "count", r.fleet.unroutable as f64, 1),
        Metric::new("clients.retries", "count", r.clients.retries as f64, 1),
        Metric::new("clients.abandoned", "count", r.clients.abandoned as f64, 1),
        Metric::new(
            "telemetry.overhead_share",
            "share",
            overhead_share(untraced_walls, &timings.scaled_ms),
            timings.scaled_ms.len() as u64,
        ),
    ]);
    Ok(())
}

/// First-attempt arrivals of the storm (base trace times the flash-crowd
/// multiplier), drawn from the seed.
fn arrival_times(chaos: &ChaosScenario, seed: u64) -> Vec<f64> {
    let base = chaos.fleet_scenario().arrivals;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..base.duration_s())
        .flat_map(|t| {
            let rate = base.rate_at(t) * chaos.rate_multiplier_at(t);
            Scenario::draw_arrivals(rate, &mut rng)
                .into_iter()
                .map(move |o| t as f64 * 1e3 + o)
        })
        .collect()
}

/// One traced replay for the workloads that do not run the fleet: the
/// closed-loop clients' and the router's counts.
pub fn probe(art: &Artifacts, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let chaos = ChaosScenario::retry_storm();
    let s = tracer.enter("runtime.fleet.replay", 0);
    let r = replay(art, &chaos, seed, None);
    tracer.exit(s);
    vec![
        Metric::new("router.unroutable", "count", r.fleet.unroutable as f64, 1),
        Metric::new("clients.retries", "count", r.clients.retries as f64, 1),
        Metric::new("clients.abandoned", "count", r.clients.abandoned as f64, 1),
    ]
}
