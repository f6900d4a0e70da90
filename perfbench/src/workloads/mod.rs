//! The four workloads. Each sets itself up [`crate::SETUPS`] times (the
//! median is `setup_s`), then measures for `--seconds`; the traced run
//! splits that time between an untraced and a traced pass (their
//! difference is `telemetry.overhead_share`) and then runs the layer probes.

pub mod bursty;
pub mod fleet;
pub mod forward;
pub mod socket;

use crate::speed::HostSpeed;
use crate::stats::{fastest, median, tail};
use crate::{Metric, Outcome};
use std::time::{Duration, Instant};

/// Share of `--seconds` each pass of a traced run gets; the probes take
/// the rest.
pub const TRACED_PASS_SHARE: f64 = 0.35;

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds of each of a series of operations: as measured, and scaled
/// to nominal host speed (see [`crate::speed`]).
#[derive(Default)]
pub struct Timings {
    pub wall_ms: Vec<f64>,
    pub scaled_ms: Vec<f64>,
}

impl Timings {
    /// Adds the walls of one stretch, all scaled by `factor`.
    pub fn extend(&mut self, walls: &[f64], factor: f64) {
        self.wall_ms.extend_from_slice(walls);
        self.scaled_ms.extend(walls.iter().map(|w| w * factor));
    }
}

/// Calls `op` in windows of `window` calls until `budget` has passed (at
/// least `min_ops` calls); samples the host's speed around every window.
pub fn repeat_for<F: FnMut(usize) -> Result<(), String>>(
    budget: Duration,
    min_ops: usize,
    window: usize,
    speed: &mut HostSpeed,
    mut op: F,
) -> Result<Timings, String> {
    let start = Instant::now();
    let mut timings = Timings::default();
    let mut walls = Vec::with_capacity(window);
    speed.start();
    while timings.wall_ms.len() < min_ops || start.elapsed() < budget {
        walls.clear();
        for _ in 0..window {
            let t = Instant::now();
            op(timings.wall_ms.len() + walls.len())?;
            walls.push(ms(t));
        }
        timings.extend(&walls, speed.factor());
    }
    Ok(timings)
}

/// The timed end-to-end metrics: `setup_s`, the median of the scaled
/// set-up seconds, and, from the scaled times of the faster half of the
/// windows of `window` consecutive operations (see [`fastest`]),
/// `throughput_per_s` (`work_per_op` units per operation),
/// `latency_p50_ms` and, untraced, `latency_tail_ms` at `tail_q`. The
/// unscaled figures over every operation and the host's reference time go
/// to the report.
#[allow(clippy::too_many_arguments)]
pub fn timed_metrics(
    out: &mut Outcome,
    setup_s: &[f64],
    timings: &Timings,
    work_per_op: f64,
    window: usize,
    tail_q: f64,
    speed: &HostSpeed,
    traced: bool,
) -> Result<(), String> {
    let kept = fastest(&timings.scaled_ms, window, 2);
    let n = kept.len() as u64;
    let busy_s = kept.iter().sum::<f64>() / 1e3;
    out.end_to_end.extend([
        Metric::new("setup_s", "s", median(setup_s), setup_s.len() as u64),
        Metric::new(
            "throughput_per_s",
            "1/s",
            work_per_op * n as f64 / busy_s,
            n,
        ),
        Metric::new("latency_p50_ms", "ms", median(&kept), n),
    ]);
    if !traced {
        out.end_to_end.push(Metric::new(
            "latency_tail_ms",
            "ms",
            tail(&kept, tail_q)?,
            n,
        ));
    }
    let walls = &timings.wall_ms;
    let wall_s = walls.iter().sum::<f64>() / 1e3;
    let all = walls.len() as u64;
    out.extra.extend([
        Metric::new(
            "wall.throughput_per_s",
            "1/s",
            work_per_op * all as f64 / wall_s,
            all,
        ),
        Metric::new("wall.latency_p50_ms", "ms", median(walls), all),
        Metric::new(
            "host.reference_ms",
            "ms",
            median(speed.samples()),
            speed.samples().len() as u64,
        ),
    ]);
    out.info
        .push(("tail_quantile".into(), format!("p{:.0}", tail_q * 100.0)));
    Ok(())
}

/// Traced wall per operation over untraced wall per operation, minus one.
pub fn overhead_share(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    crate::stats::median(traced_ms) / crate::stats::median(untraced_ms) - 1.0
}

/// splitmix64: the benchmark's input generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
