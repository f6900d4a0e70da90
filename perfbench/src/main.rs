//! RT3 benchmark: four workloads over the public API of the RT3 crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bursty-real|fleet-storm|socket-open|forward> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! reruns the workload with spans and the program's full telemetry on, runs
//! the layer probes, prints the per-layer metrics and writes the spans as
//! JSONL under `perfbench/out/`. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is a report with every metric's sample count, the host fingerprint and
//! the output digests. Any failed correctness check exits non-zero.

mod artifacts;
mod probes;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not reach a
/// layer reports 0 for its counts and shares; every timing is measured on
/// every workload (by the layer probes where the workload bypasses it).
const PER_LAYER: &[(&str, &str)] = &[
    ("core.level1_ms", "ms"),
    ("core.search_space_ms", "ms"),
    ("core.level2_ms", "ms"),
    ("search.evaluations", "count"),
    ("bank.build_ms.l0", "ms"),
    ("bank.build_ms.l1", "ms"),
    ("bank.build_ms.l2", "ms"),
    ("bank.builds", "count"),
    ("bank.stored_mb", "MB"),
    ("pool.batch_ms.b1", "ms"),
    ("pool.batch_ms.b2", "ms"),
    ("pool.batch_ms.b3", "ms"),
    ("pool.batch_ms.b4", "ms"),
    ("pool.batches", "count"),
    ("pool.busy_share", "share"),
    ("sparse.matmul_us", "us"),
    ("sparse.gmac_per_s", "GMAC/s"),
    ("sparse.bytes_per_call", "B"),
    ("scheduler.submit_us", "us"),
    ("scheduler.dispatch_us", "us"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_tail_ms", "ms"),
    ("scheduler.batch_size", "count"),
    ("scheduler.rejected", "count"),
    ("controller.switches", "count"),
    ("controller.switch_ms", "ms"),
    ("router.order_us", "us"),
    ("router.unroutable", "count"),
    ("clients.retries", "count"),
    ("clients.abandoned", "count"),
    ("server.overhead_p50_ms", "ms"),
    ("server.overhead_tail_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.batch_size", "count"),
    ("server.rejected_queue_full", "count"),
    ("server.responses_failed", "count"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("transformer.forward_ms.l0", "ms"),
    ("transformer.forward_ms.l1", "ms"),
    ("transformer.forward_ms.l2", "ms"),
    ("transformer.forward_dense_ms", "ms"),
    ("transformer.masked_over_dense", "ratio"),
    ("telemetry.overhead_share", "share"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, n: u64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            n,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub violations: Vec<String>,
    /// The end-to-end metrics of [`END_TO_END`] (set-up and RSS excluded,
    /// `main` adds them).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end metrics (error, miss and retry rates,
    /// energy, highest sustained rate), reported in the report line.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Digests, phase tallies and other facts printed for comparison.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// Peak resident set size of this process (VmHWM), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = if with_n {
                format!(", \"n\": {}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Orders `metrics` as `spec` lists them, filling a name the workload did
/// not produce with `fill` (or recording a violation when `fill` is `None`).
fn select(
    spec: &[(&str, &'static str)],
    metrics: &[Metric],
    fill: Option<f64>,
    violations: &mut Vec<String>,
) -> Vec<Metric> {
    spec.iter()
        .map(
            |&(name, unit)| match metrics.iter().find(|m| m.name == name) {
                Some(m) => {
                    if m.unit != unit {
                        violations.push(format!("{name}: unit {} != {unit}", m.unit));
                    }
                    m.clone()
                }
                None => {
                    if fill.is_none() {
                        violations.push(format!("{name} was not measured"));
                    }
                    Metric::new(name, unit, fill.unwrap_or(0.0), 0)
                }
            },
        )
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = rt3_sparse::Backend::detect().label();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host: nproc={nproc} backend={backend}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "bursty-real" => workloads::bursty::run(&args, &mut tracer),
        "fleet-storm" => workloads::fleet::run(&args, &mut tracer),
        "socket-open" => workloads::socket::run(&args, &mut tracer),
        "forward" => workloads::forward::run(&args, &mut tracer),
        other => Err(format!(
            "unknown workload {other:?} (bursty-real|fleet-storm|socket-open|forward)"
        )),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    outcome
        .end_to_end
        .push(Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1));

    let mut violations = std::mem::take(&mut outcome.violations);
    if outcome.attempted == 0 {
        violations.push("no operation was attempted".into());
    }
    let mut reported = if args.trace {
        Vec::new()
    } else {
        select(END_TO_END, &outcome.end_to_end, None, &mut violations)
    };
    reported.extend(outcome.extra.iter().cloned());
    let layers = if args.trace {
        let layers = select(PER_LAYER, &outcome.layers, Some(0.0), &mut violations);
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path, &args.workload, args.seed) {
            violations.push(format!("writing {}: {e}", path.display()));
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        for (name, ms) in tracer.self_time_ms() {
            println!("  self {name:<28} {ms:>12.3} ms");
        }
        layers
    } else {
        Vec::new()
    };
    for m in reported.iter().chain(&layers) {
        println!("  {:<30} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    for m in reported.iter().chain(&layers) {
        if !m.value.is_finite() {
            violations.push(format!("{} is not finite", m.name));
        }
    }
    for v in &violations {
        eprintln!("perfbench: CHECK FAILED: {v}");
    }
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {nproc}, \"backend\": {}}}, \"wall_s\": {}, \"metrics\": {}, \"per_layer\": {}, \"info\": {{{}}}, \"violations\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        json_str(backend),
        json_num(started.elapsed().as_secs_f64()),
        metrics_json(&reported, true),
        metrics_json(&layers, true),
        info.join(", "),
        violations.len()
    );
    if !violations.is_empty() {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted, outcome.failed
        );
        std::process::exit(1);
    }
    let shown = if args.trace {
        layers
    } else {
        reported.truncate(END_TO_END.len());
        reported
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&shown, false)
    );
}
