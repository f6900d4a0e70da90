//! `socket-open`: the only real-wall-clock serving path. An in-process
//! `Server` (paper-default spec, a battery that cannot die in a run) takes
//! one TCP connection driven open-loop: a sender thread writes requests at
//! Poisson-scheduled due times, a receiver thread reads the responses.
//! A base phase at 2,000 req/s gives the latency metrics, timed from each
//! request's due time; then a doubling rate ladder from 1,000 req/s finds
//! the highest rate the server sustains within the 400 ms budget.

use super::{secs, splitmix, TRACED_PASS_SHARE};
use crate::artifacts::Artifacts;
use crate::stats::{fastest, median, quantile, tail};
use crate::trace::Tracer;
use crate::{probes, Args, Metric, Outcome, SETUPS};
use rt3_server::protocol::{read_frame, write_frame, ClientFrame, ServerFrame};
use rt3_server::{InferResponse, Server, ServerConfig, ServerSpec, Status};
use rt3_telemetry::MetricsSnapshot;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const BASE_RATE: f64 = 2_000.0;
const LADDER_START: f64 = 1_000.0;
const LADDER_RUNGS: usize = 6;
const BUDGET_MS: f64 = 400.0;
const PAYLOAD: [u8; 64] = [0x5a; 64];
/// Far more energy than a run can draw: the battery never dies.
const BATTERY_J: f64 = 1e9;
const WARMUP_REQUESTS: usize = 200;
const TAIL_Q: f64 = 0.9;
/// Consecutive requests per window of [`fastest`] (0.1 s at the base
/// rate): latency comes from the faster half of the windows, as on the
/// CPU-bound workloads, because co-tenant load on the host also delays the
/// server's threads.
const LATENCY_WINDOW: usize = 200;
/// Share of the measured time the base phase gets; the ladder gets the rest.
const BASE_SHARE: f64 = 0.5;
/// A rung fails when more than this share of its requests does not
/// complete within the budget.
const MAX_FAILURE_SHARE: f64 = 0.01;
/// How long the receiver waits for an outstanding response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(3);

/// One request of a phase and what became of it.
struct Sent {
    due: Instant,
    sent: Instant,
    response: Option<(Instant, InferResponse)>,
}

/// One open-loop phase at a fixed rate.
struct Phase {
    label: String,
    requests: Vec<Sent>,
    /// Responses whose id was already resolved or never sent.
    duplicates: u64,
}

impl Phase {
    fn completed_in_budget(&self) -> Vec<&Sent> {
        self.requests
            .iter()
            .filter(|s| {
                matches!(s.response, Some((at, ref r))
                    if r.status == Status::Completed
                        && (at - s.due).as_secs_f64() * 1e3 <= BUDGET_MS)
            })
            .collect()
    }

    /// Milliseconds from due time to response, completed requests only.
    fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|s| match s.response {
                Some((at, ref r)) if r.status == Status::Completed => {
                    Some((at - s.due).as_secs_f64() * 1e3)
                }
                _ => None,
            })
            .collect()
    }

    fn last_response(&self) -> Option<Instant> {
        self.requests
            .iter()
            .filter_map(|s| s.response.map(|r| r.0))
            .max()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
            .collect()
    }

    fn lost(&self) -> usize {
        self.requests
            .iter()
            .filter(|s| s.response.is_none())
            .count()
    }

    fn succeeded(&self) -> usize {
        self.requests
            .iter()
            .filter(|s| matches!(s.response, Some((_, ref r)) if r.status == Status::Completed))
            .count()
    }

    /// Share of requests sent that did not complete within the budget.
    fn failure_share(&self) -> f64 {
        let n = self.requests.len().max(1);
        1.0 - self.completed_in_budget().len() as f64 / n as f64
    }

    fn tally(&self) -> String {
        format!(
            "sent {} succeeded {} failed {}",
            self.requests.len(),
            self.succeeded(),
            self.requests.len() - self.succeeded()
        )
    }
}

/// A server with one connected client socket.
struct Session {
    server: Server,
    stream: TcpStream,
    next_id: u64,
}

impl Session {
    fn open() -> Result<Self, String> {
        let server = Server::spawn(
            "127.0.0.1:0",
            ServerSpec::paper_default(BATTERY_J),
            ServerConfig::default(),
        )?;
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let mut session = Self {
            server,
            stream,
            next_id: 0,
        };
        session.warm_up()?;
        Ok(session)
    }

    /// Closed-loop requests until the connection and server are warm.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut reader = BufReader::new(self.stream.try_clone().map_err(|e| e.to_string())?);
        for _ in 0..WARMUP_REQUESTS {
            let id = self.next_id;
            self.next_id += 1;
            write_frame(
                &mut self.stream,
                &ClientFrame::encode_infer(id, BUDGET_MS, &PAYLOAD),
            )
            .map_err(|e| format!("warm-up write: {e}"))?;
            match read_frame(&mut reader, u32::MAX).map_err(|e| format!("warm-up read: {e}"))? {
                Some(body) => match ServerFrame::decode(&body) {
                    Ok(ServerFrame::Infer(r)) if r.id == id => {}
                    other => return Err(format!("warm-up: unexpected frame {other:?}")),
                },
                None => return Err("warm-up: server closed the connection".into()),
            }
        }
        Ok(())
    }

    /// Sends a Poisson schedule at `rate` for `duration` and collects every
    /// response. The calling thread sends; one scoped thread receives.
    fn phase(
        &mut self,
        label: &str,
        rate: f64,
        duration: Duration,
        rng: &mut u64,
    ) -> Result<Phase, String> {
        let mut offsets = Vec::new();
        let mut t = 0.0;
        loop {
            let u = (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            if t >= duration.as_secs_f64() {
                break;
            }
            offsets.push(Duration::from_secs_f64(t));
        }
        let count = offsets.len();
        let first_id = self.next_id;
        self.next_id += count as u64;
        let reader = self.stream.try_clone().map_err(|e| e.to_string())?;
        let start = Instant::now() + Duration::from_millis(2);
        let mut requests: Vec<Sent> = offsets
            .iter()
            .map(|&o| Sent {
                due: start + o,
                sent: start + o,
                response: None,
            })
            .collect();
        let (received, duplicates, send_error) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || receive(reader, first_id, count));
            let mut send_error = None;
            for (k, req) in requests.iter_mut().enumerate() {
                let now = Instant::now();
                if req.due > now {
                    std::thread::sleep(req.due - now);
                }
                req.sent = Instant::now();
                let body = ClientFrame::encode_infer(first_id + k as u64, BUDGET_MS, &PAYLOAD);
                if let Err(e) = write_frame(&mut self.stream, &body) {
                    send_error = Some(format!("send: {e}"));
                    break;
                }
            }
            let (received, duplicates) = receiver.join().expect("receiver thread panicked");
            (received, duplicates, send_error)
        });
        if let Some(e) = send_error {
            return Err(e);
        }
        for (req, got) in requests.iter_mut().zip(received) {
            req.response = got;
        }
        Ok(Phase {
            label: label.to_string(),
            requests,
            duplicates,
        })
    }
}

/// Reads responses until `count` ids from `first_id` have resolved or the
/// socket times out; returns each id's response and the duplicate count.
fn receive(
    stream: TcpStream,
    first_id: u64,
    count: usize,
) -> (Vec<Option<(Instant, InferResponse)>>, u64) {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut got: Vec<Option<(Instant, InferResponse)>> = (0..count).map(|_| None).collect();
    let (mut resolved, mut duplicates) = (0usize, 0u64);
    while resolved < count {
        let body = match read_frame(&mut reader, u32::MAX) {
            Ok(Some(body)) => body,
            // timeout, close or socket error: whatever is missing is lost
            _ => break,
        };
        let at = Instant::now();
        let Ok(ServerFrame::Infer(r)) = ServerFrame::decode(&body) else {
            duplicates += 1;
            continue;
        };
        match r.id.checked_sub(first_id).map(|i| i as usize) {
            Some(i) if i < count && got[i].is_none() => {
                got[i] = Some((at, r));
                resolved += 1;
            }
            _ => duplicates += 1,
        }
    }
    (got, duplicates)
}

/// The highest sustained rate: where the failure share crosses
/// [`MAX_FAILURE_SHARE`], interpolated log-linearly in the rate between
/// the last rung that passed and the first that failed. Interpolating
/// keeps the estimate continuous where a bare rung rate would jump by 2x
/// between runs whose capacity sits near a rung. `None` when the first
/// rung failed; the top rung's rate when none failed.
fn sustained_rate(passed: Option<(f64, f64)>, failed: Option<(f64, f64)>) -> Option<f64> {
    let (lo, f_lo) = passed?;
    let Some((hi, f_hi)) = failed else {
        return Some(lo);
    };
    let x = (MAX_FAILURE_SHARE - f_lo) / (f_hi - f_lo);
    Some(lo * (hi / lo).powf(x))
}

fn check_phase(out: &mut Outcome, phase: &Phase) {
    out.check(phase.lost() == 0, || {
        format!(
            "{}: {} requests never got a response",
            phase.label,
            phase.lost()
        )
    });
    out.check(phase.duplicates == 0, || {
        format!(
            "{}: {} responses for unknown or resolved ids",
            phase.label, phase.duplicates
        )
    });
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut session = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = tracer.enter("socket.setup", i as u64);
        let opened = Session::open()?;
        tracer.exit(s);
        setup_s.push(secs(t));
        if let Some(mut old) = session.replace(opened) {
            shut(&mut old);
        }
    }
    let mut session = session.expect("SETUPS is positive");
    let result = measure(args, tracer, &mut session, setup_s);
    shut(&mut session);
    result
}

fn shut(session: &mut Session) {
    let _ = session.stream.shutdown(std::net::Shutdown::Both);
    session.server.shutdown();
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    session: &mut Session,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = args.seed;
    let pass = if args.trace {
        TRACED_PASS_SHARE
    } else {
        BASE_SHARE
    };
    let base = session.phase(
        "base",
        BASE_RATE,
        Duration::from_secs_f64(args.seconds * pass),
        &mut rng,
    )?;
    check_phase(&mut out, &base);
    out.attempted = base.requests.len() as u64;
    out.failed = (base.requests.len() - base.succeeded()) as u64;
    let lat = base.latencies_ms();
    let kept = fastest(&lat, LATENCY_WINDOW, 2);
    let late = base.late_ms();
    let n = kept.len() as u64;
    let base_wall_s = match (base.requests.first(), base.last_response()) {
        (Some(first), Some(last)) => (last - first.due).as_secs_f64(),
        _ => return Err("socket-open: the base phase got no response".into()),
    };
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len() as u64),
        Metric::new(
            "throughput_per_s",
            "1/s",
            base.completed_in_budget().len() as f64 / base_wall_s,
            n,
        ),
        Metric::new("latency_p50_ms", "ms", median(&kept), n),
    ];
    out.info = vec![
        ("tail_quantile".into(), format!("p{:.0}", TAIL_Q * 100.0)),
        (format!("phase.base@{BASE_RATE}"), base.tally()),
    ];
    out.extra.push(Metric::new(
        "loadgen.late_p99_ms",
        "ms",
        quantile(&late, 0.99),
        late.len() as u64,
    ));
    out.extra.push(Metric::new(
        "loadgen.late_max_ms",
        "ms",
        quantile(&late, 1.0),
        late.len() as u64,
    ));
    if args.trace {
        let before = session.server.metrics_snapshot().metrics;
        let traced = session.phase(
            "traced",
            BASE_RATE,
            Duration::from_secs_f64(args.seconds * TRACED_PASS_SHARE),
            &mut rng,
        )?;
        check_phase(&mut out, &traced);
        let after = session.server.metrics_snapshot().metrics;
        record_spans(tracer, &traced);
        out.layers.extend(layer_metrics(&traced, &before, &after)?);
        out.layers.push(Metric::new(
            "telemetry.overhead_share",
            "share",
            median(&traced.latencies_ms()) / median(&lat) - 1.0,
            traced.requests.len() as u64,
        ));
        let art = Artifacts::build(tracer);
        let arrivals: Vec<f64> = base
            .requests
            .iter()
            .map(|s| (s.due - base.requests[0].due).as_secs_f64() * 1e3)
            .collect();
        let skip = probes::Skip {
            socket: true,
            ..probes::Skip::default()
        };
        out.layers
            .extend(probes::run(&art, args.seed, &arrivals, tracer, skip)?);
        out.extra.push(Metric::new(
            "error_rate",
            "share",
            out.failed as f64 / out.attempted as f64,
            out.attempted,
        ));
        return Ok(out);
    }
    out.end_to_end.push(Metric::new(
        "latency_tail_ms",
        "ms",
        tail(&kept, TAIL_Q)?,
        n,
    ));

    let rung_time =
        Duration::from_secs_f64(args.seconds * (1.0 - BASE_SHARE) / LADDER_RUNGS as f64);
    let mut passed: Option<(f64, f64)> = None;
    let mut failed_at = None;
    let mut rate = LADDER_START;
    for _ in 0..LADDER_RUNGS {
        let rung = session.phase(&format!("rung@{rate}"), rate, rung_time, &mut rng)?;
        check_phase(&mut out, &rung);
        let share = rung.failure_share();
        out.info.push((
            format!("phase.{}", rung.label),
            format!(
                "{} late_p99_ms {:.3} failure_share {share:.5}",
                rung.tally(),
                quantile(&rung.late_ms(), 0.99)
            ),
        ));
        // every rung runs, so a run's length and memory do not depend on
        // where the ladder first fails
        if failed_at.is_none() {
            if share > MAX_FAILURE_SHARE {
                failed_at = Some((rate, share));
            } else {
                passed = Some((rate, share));
            }
        }
        rate *= 2.0;
    }
    let max_rate = sustained_rate(passed, failed_at)
        .ok_or_else(|| format!("socket-open: the {LADDER_START} req/s rung already failed"))?;
    out.extra
        .push(Metric::new("max_rate_rps", "1/s", max_rate, 1));
    out.extra.push(Metric::new(
        "error_rate",
        "share",
        out.failed as f64 / out.attempted as f64,
        out.attempted,
    ));
    Ok(out)
}

/// One span per request, from due time to response, with the send and the
/// server-reported queue + service time as children.
fn record_spans(tracer: &mut Tracer, phase: &Phase) {
    for (k, s) in phase.requests.iter().enumerate() {
        let Some((at, r)) = &s.response else { continue };
        let id = k as u64;
        let outer = tracer.record("socket.request", id, s.due, *at);
        tracer.record_child(outer, "loadgen.late", id, s.due, s.sent);
        let server_ms = Duration::from_secs_f64((r.queue_ms + r.infer_ms).max(0.0) / 1e3);
        let server_end = (s.sent + server_ms).min(*at);
        tracer.record_child(outer, "server.queue_and_infer", id, s.sent, server_end);
    }
}

/// Server-layer metrics of a traced phase: the client-measured overhead
/// beyond the server-reported queue + service time, and the scrape deltas.
fn layer_metrics(
    phase: &Phase,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) -> Result<Vec<Metric>, String> {
    let mut overhead = Vec::new();
    let mut service = Vec::new();
    for s in &phase.requests {
        if let Some((at, r)) = &s.response {
            if r.status == Status::Completed {
                let wall = (*at - s.sent).as_secs_f64() * 1e3;
                overhead.push(wall - (r.queue_ms + r.infer_ms));
                service.push(r.queue_ms + r.infer_ms);
            }
        }
    }
    let counter = |name: &str| -> Result<f64, String> {
        let get = |m: &MetricsSnapshot| {
            m.counter(name)
                .ok_or_else(|| format!("server scrape has no {name} counter"))
        };
        Ok((get(after)? - get(before)?) as f64)
    };
    let window = |name: &str| -> Result<rt3_telemetry::StreamingHistogram, String> {
        let get = |m: &MetricsSnapshot| {
            m.histogram(name)
                .cloned()
                .ok_or_else(|| format!("server scrape has no {name} histogram"))
        };
        Ok(match get(after)?.delta_since(&get(before)?) {
            Some(delta) => delta.window_histogram(),
            None => Default::default(),
        })
    };
    let wait = window("queue_wait_ms")?;
    let batch = window("batch_size")?;
    let switch = window("switch_time_ms")?;
    let late = phase.late_ms();
    let rejected = counter("requests_rejected_queue_full")?;
    Ok(vec![
        Metric::new(
            "server.overhead_p50_ms",
            "ms",
            median(&overhead),
            overhead.len() as u64,
        ),
        Metric::new(
            "server.overhead_tail_ms",
            "ms",
            quantile(&overhead, TAIL_Q),
            overhead.len() as u64,
        ),
        Metric::new(
            "server.service_ms",
            "ms",
            median(&service),
            service.len() as u64,
        ),
        Metric::new("server.batch_size", "count", batch.mean(), batch.count()),
        Metric::new("server.rejected_queue_full", "count", rejected, 1),
        Metric::new(
            "server.responses_failed",
            "count",
            counter("responses_failed")?,
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
        Metric::new("scheduler.batch_size", "count", batch.mean(), batch.count()),
        Metric::new(
            "scheduler.rejected",
            "count",
            rejected + counter("requests_rejected_certain_miss")?,
            1,
        ),
        Metric::new("controller.switches", "count", counter("switches")?, 1),
        Metric::new("controller.switch_ms", "ms", switch.sum(), switch.count()),
        Metric::new(
            "loadgen.late_p99_ms",
            "ms",
            quantile(&late, 0.99),
            late.len() as u64,
        ),
        Metric::new(
            "loadgen.late_max_ms",
            "ms",
            quantile(&late, 1.0),
            late.len() as u64,
        ),
    ])
}

/// A short base phase against a fresh server, for the traced runs of the
/// workloads that do not serve over the socket.
pub fn probe(tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut session = Session::open()?;
    let mut rng = 0x5eed;
    let before = session.server.metrics_snapshot().metrics;
    let result = session.phase(
        "probe",
        BASE_RATE / 2.0,
        Duration::from_millis(500),
        &mut rng,
    );
    let after = session.server.metrics_snapshot().metrics;
    shut(&mut session);
    let phase = result?;
    if phase.lost() > 0 || phase.duplicates > 0 {
        return Err(format!("socket probe: {}", phase.tally()));
    }
    record_spans(tracer, &phase);
    layer_metrics(&phase, &before, &after)
}
