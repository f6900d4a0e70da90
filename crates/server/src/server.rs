//! The serving front-end: a thread-per-connection TCP acceptor feeding the
//! runtime's [`DeviceCore`] — the same device state machine the simulated
//! engine and fleet step — with wall-clock time as the core's time axis.
//!
//! Three kinds of thread cooperate around one mutex-guarded [`Core`]:
//!
//! * **connection threads** (one per accepted socket) parse frames,
//!   run admission under the lock, and write rejects synchronously;
//! * the **dispatch thread** ticks every few milliseconds: at window
//!   boundaries it steps the device core (background drain, drain-rate
//!   observation, death detection, level decision and switch), then
//!   dispatches due micro-batches and flushes each completion's response
//!   once the wall clock reaches its simulated finish time — so the
//!   latency a client measures on the wire *is* the cost model's queue +
//!   service prediction, plus real network and scheduling jitter;
//! * the **acceptor** hands sockets to connection threads, or refuses
//!   them with a terminal frame once the battery has died.
//!
//! Every admitted request resolves to exactly one response frame:
//! completion, explicit reject, or an explicit drop code when the battery
//! dies or the server shuts down. Backpressure is never a silent stall.
//!
//! The device core records the runtime's device metric schema at
//! `Counters`, the same numbers a simulated device exports for the same
//! state; completions count when the core dispatches them. The server
//! itself counts only what a socket adds (connections, protocol errors,
//! failed writes, draining refusals, shutdown drops), and every scrape
//! reads the two merged.

use crate::protocol::{
    read_frame, write_frame, ClientFrame, InferResponse, ProtocolError, ServerFrame, Status,
    TERMINAL_BATTERY_DEAD, TERMINAL_IDLE_TIMEOUT, TERMINAL_PROTOCOL_ERROR, TERMINAL_SHUTDOWN,
};
use rt3_hardware::{Battery, DvfsGovernor, PowerModel};
use rt3_runtime::{
    Analytic, CostConfig, CostModel, DeadlineScheduler, DeviceCore, HysteresisConfig, LatencyModel,
    RejectReason, Request, RuntimeController, RuntimePolicy, SchedulerConfig,
};
use rt3_telemetry::{
    CounterId, MetricRegistry, MetricShard, MetricsSnapshot, ObsPlane, TelemetryConfig,
    TelemetryLevel, TelemetrySnapshot, WallClock,
};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server serves: the cost model, the governor and the battery —
/// the same physical story the simulated engine plays, minus the model
/// bank (the server paces responses by the cost model; it does not run
/// tensor math on the request path). In place of the bank, the device
/// core prices each level from `level_base_ms` and `switch_time_ms`.
pub struct ServerSpec {
    /// Prediction surface for admission and service times.
    pub cost: Arc<dyn CostModel>,
    /// Battery governor (levels + thresholds).
    pub governor: DvfsGovernor,
    /// Controller hysteresis.
    pub hysteresis: HysteresisConfig,
    /// Cached single-request latency per governor level position (what the
    /// engine caches as `active_base_latency_ms` after each switch).
    pub level_base_ms: Vec<f64>,
    /// Wall-time cost of a pattern-set switch, charged to the workers.
    pub switch_time_ms: f64,
    /// Battery capacity at startup, joules.
    pub battery_capacity_j: f64,
    /// Cluster power model for energy accounting.
    pub power: PowerModel,
}

impl ServerSpec {
    /// The paper-shaped default: Cortex-A7 predictor on the paper's
    /// Transformer workload, fixed 70% sparsity across the governor's
    /// levels, analytic batch amortisation.
    pub fn paper_default(battery_capacity_j: f64) -> Self {
        let governor = DvfsGovernor::paper_default();
        let cost: Arc<dyn CostModel> = Arc::new(Analytic::new(
            LatencyModel {
                predictor: rt3_hardware::PerformancePredictor::cortex_a7(),
                workload_config: rt3_transformer::TransformerConfig::paper_transformer(512),
                seq_len: 24,
            },
            CostConfig::default(),
        ));
        let level_base_ms = governor
            .levels()
            .iter()
            .map(|level| cost.base_latency_ms(0.7, level))
            .collect();
        Self {
            cost,
            governor,
            hysteresis: HysteresisConfig::default(),
            level_base_ms,
            switch_time_ms: 8.0,
            battery_capacity_j,
            power: PowerModel::cortex_a7(),
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.level_base_ms.len() != self.governor.levels().len() {
            return Err("one base latency per governor level is required".into());
        }
        if self
            .level_base_ms
            .iter()
            .any(|ms| !ms.is_finite() || *ms <= 0.0)
        {
            return Err("level base latencies must be positive and finite".into());
        }
        if !(self.switch_time_ms >= 0.0 && self.switch_time_ms.is_finite()) {
            return Err("switch_time_ms must be non-negative and finite".into());
        }
        if !(self.battery_capacity_j > 0.0 && self.battery_capacity_j.is_finite()) {
            return Err("battery_capacity_j must be positive and finite".into());
        }
        self.hysteresis.validate()
    }
}

/// Serving parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler shape (queue bound, micro-batch cap, worker count).
    pub scheduler: SchedulerConfig,
    /// Governor cadence: one controller decision per window.
    pub window_ms: f64,
    /// Dispatch-thread tick, the response-pacing granularity.
    pub tick_ms: u64,
    /// Always-on background drain charged per window.
    pub background_w: f64,
    /// Largest accepted frame (bounds per-connection memory).
    pub max_frame_len: u32,
    /// Per-connection read timeout (`SO_RCVTIMEO`, set once at accept). A
    /// peer that connects and then hangs — idle or mid-frame — is reaped
    /// with a [`TERMINAL_IDLE_TIMEOUT`] frame when it expires, instead of
    /// pinning its connection thread forever. `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout (`SO_SNDTIMEO`, set once at accept):
    /// bounds how long a response write may block on a peer that stopped
    /// reading. A timed-out write counts as a failed response. `None`
    /// blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            window_ms: 1_000.0,
            tick_ms: 2,
            background_w: 0.1,
            max_frame_len: 1 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), String> {
        self.scheduler.validate()?;
        if !(self.window_ms > 0.0 && self.window_ms.is_finite()) {
            return Err("window_ms must be positive and finite".into());
        }
        if self.tick_ms == 0 {
            return Err("tick_ms must be positive".into());
        }
        if !(self.background_w >= 0.0 && self.background_w.is_finite()) {
            return Err("background_w must be non-negative and finite".into());
        }
        if self.max_frame_len < 64 {
            return Err("max_frame_len must hold at least a header frame".into());
        }
        for timeout in [self.read_timeout, self.write_timeout]
            .into_iter()
            .flatten()
        {
            if timeout.is_zero() {
                return Err("socket timeouts must be positive (use None to wait forever)".into());
            }
        }
        Ok(())
    }
}

/// A connection's write half, shared between its reader thread (rejects,
/// metrics) and the dispatch thread (completions). Every frame goes out in
/// one `write_all` under the mutex, so concurrent writers never tear
/// frames.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one frame; returns whether the write succeeded. Failures are
    /// counted by the caller, never propagated as panics — a client that
    /// disconnected before its response must not take the server down.
    fn send(&self, body: &[u8]) -> bool {
        let mut stream = self.stream.lock().expect("writer lock");
        write_frame(&mut *stream, body)
            .and_then(|()| stream.flush())
            .is_ok()
    }

    fn shutdown(&self) {
        let stream = self.stream.lock().expect("writer lock");
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// An admitted request waiting for dispatch or completion.
struct PendingEntry {
    client_id: u64,
    conn: Arc<ConnWriter>,
}

/// A dispatched request whose response is due at `finish_ms`.
struct InFlight {
    finish_ms: f64,
    internal_id: u64,
    response: InferResponse,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.finish_ms == other.finish_ms && self.internal_id == other.internal_id
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_ms
            .total_cmp(&other.finish_ms)
            .then(self.internal_id.cmp(&other.internal_id))
    }
}

/// Transport counter handles, registered once at startup. The device
/// metrics (DESIGN.md §9) are recorded by the [`DeviceCore`]; these count
/// what only a socket server sees.
struct TransportIds {
    draining_refused: CounterId,
    dropped_shutdown: CounterId,
    protocol_errors: CounterId,
    responses_failed: CounterId,
    connections_opened: CounterId,
    connections_closed: CounterId,
    connections_refused_dead: CounterId,
    connections_timed_out: CounterId,
}

impl TransportIds {
    fn register(registry: &mut MetricRegistry) -> Self {
        Self {
            draining_refused: registry.counter("requests_draining_refused"),
            dropped_shutdown: registry.counter("requests_dropped_shutdown"),
            protocol_errors: registry.counter("protocol_errors"),
            responses_failed: registry.counter("responses_failed"),
            connections_opened: registry.counter("connections_opened"),
            connections_closed: registry.counter("connections_closed"),
            connections_refused_dead: registry.counter("connections_refused_dead"),
            connections_timed_out: registry.counter("connections_timed_out"),
        }
    }
}

/// Where the server is in its life. It lives inside [`Core`], so every
/// transition and every check happens under the core lock: no thread can
/// act on a state that another thread has already left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Admitting and serving requests.
    Serving,
    /// The battery died: queued requests were dropped, new ones are
    /// answered `Draining`, new connections are refused; open connections
    /// stay up for metrics.
    Draining,
    /// [`Server::shutdown`] resolved every request and closed every
    /// connection; nothing is admitted, dispatched or written any more.
    Stopped,
}

/// Everything the threads share under one lock.
struct Core {
    lifecycle: Lifecycle,
    /// Battery, drain tracker, controller and scheduler: the runtime's
    /// device state machine, stepped on the wall clock. It records the
    /// device metrics.
    device: DeviceCore,
    next_window_ms: f64,
    next_internal_id: u64,
    pending: HashMap<u64, PendingEntry>,
    inflight: std::collections::BinaryHeap<Reverse<InFlight>>,
    registry: MetricRegistry,
    shard: MetricShard,
    ids: TransportIds,
    connections: Vec<Weak<ConnWriter>>,
    /// Live series + alert rules, scraped once per governor window by the
    /// dispatch tick (or by whichever admission catches the boundary
    /// first).
    obs: ObsPlane,
    /// Index of the next scrape window (the `t_s` axis of the series).
    window_index: u32,
    /// Connections that sent `REQ_SUBSCRIBE`; each gets one obs chunk per
    /// window. A subscriber whose send fails is dropped from the list —
    /// the slow-consumer backpressure rule (DESIGN.md §12).
    subscribers: Vec<Weak<ConnWriter>>,
}

impl Core {
    /// A response that carries no service (a reject or a drop) at the
    /// active level.
    fn unserved(&self, id: u64, status: Status) -> InferResponse {
        InferResponse {
            id,
            status,
            level_pos: self.device.active_level().unwrap_or(0) as u32,
            queue_ms: 0.0,
            infer_ms: 0.0,
        }
    }

    /// Writes one response frame, counting a failed write.
    fn send(&mut self, conn: &ConnWriter, response: &InferResponse) {
        if !conn.send(&response.encode()) {
            self.shard.add(self.ids.responses_failed, 1);
        }
    }

    /// Answers every dropped request with `status` and flushes every
    /// in-flight response immediately.
    fn resolve_all(&mut self, dropped: Vec<Request>, status: Status) {
        for request in dropped {
            if let Some(entry) = self.pending.remove(&request.id) {
                let response = self.unserved(entry.client_id, status);
                self.send(&entry.conn, &response);
            }
        }
        let due: Vec<Reverse<InFlight>> = self.inflight.drain().collect();
        for Reverse(flight) in due {
            self.flush_completion(flight);
        }
    }

    /// Writes a completion response (the device core counted the
    /// completion when it dispatched it).
    fn flush_completion(&mut self, flight: InFlight) {
        let Some(entry) = self.pending.remove(&flight.internal_id) else {
            return;
        };
        let mut response = flight.response;
        response.id = entry.client_id;
        self.send(&entry.conn, &response);
    }

    /// The device metrics merged with the transport counters.
    fn metrics(&self) -> MetricsSnapshot {
        let mut metrics = self
            .device
            .metrics()
            .expect("the device core records at Counters");
        metrics.merge(&self.registry.snapshot(&self.shard));
        metrics
    }
}

struct Shared {
    core: Mutex<Core>,
    start: Instant,
    config: ServerConfig,
    spec: ServerSpec,
}

impl Shared {
    fn lifecycle(&self) -> Lifecycle {
        self.core.lock().expect("core lock").lifecycle
    }

    fn now_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1_000.0
    }

    /// Runs governor windows up to `now_ms`: level decisions, switch costs,
    /// background drain, battery-death detection — then scrapes each
    /// boundary into the obs plane and pushes the window's series/alert
    /// chunk to every subscriber.
    fn advance_windows(&self, core: &mut Core, now_ms: f64) {
        while core.next_window_ms <= now_ms {
            let boundary = core.next_window_ms;
            core.next_window_ms += self.config.window_ms;
            if core.lifecycle == Lifecycle::Serving {
                self.window_step(core, boundary);
            }
            // dead windows still scrape: subscribers keep seeing the
            // post-mortem gauges instead of a silently frozen stream
            self.scrape_window(core, boundary);
        }
    }

    /// One live window boundary: the closing window's background drain,
    /// then the device core's next window (drain observation, death check,
    /// level decision, switch).
    fn window_step(&self, core: &mut Core, boundary: f64) {
        let window_s = self.config.window_ms / 1_000.0;
        core.device
            .drain_background(self.config.background_w * window_s);
        let spec = &self.spec;
        let start = core
            .device
            .begin_window(boundary, None, 0.0, None, |pos, _, _| {
                (spec.level_base_ms[pos], spec.switch_time_ms)
            });
        if !start.serving {
            // battery death: drop queued requests with an explicit code,
            // flush every in-flight response immediately, and flip the
            // acceptor into refuse mode. Connections stay open for
            // draining responses and metrics queries.
            core.lifecycle = Lifecycle::Draining;
            let dropped = core.device.drop_queue(boundary);
            core.resolve_all(dropped, Status::DroppedDead);
        }
    }

    /// Scrapes one window boundary into the obs plane, evaluates the alert
    /// rules, and pushes the window's JSONL delta to every subscriber.
    /// A subscriber whose socket is gone — or whose send fails or times
    /// out (the per-connection write timeout bounds how long a slow
    /// consumer can hold the lock) — is dropped from the push list.
    fn scrape_window(&self, core: &mut Core, boundary: f64) {
        let t_s = core.window_index;
        core.window_index += 1;
        let transitions = core.obs.observe_window(t_s, boundary, core.metrics());
        if core.subscribers.is_empty() {
            return;
        }
        let chunk = core
            .obs
            .window_jsonl(t_s, &transitions, &[("source", "rt3-serve")]);
        let body = ServerFrame::encode_obs(&chunk);
        core.subscribers.retain(|weak| match weak.upgrade() {
            Some(conn) => conn.send(&body),
            None => false,
        });
    }

    /// One dispatch tick: advance windows, dispatch due batches, flush
    /// responses whose simulated finish time has passed. Returns `false`
    /// once the server has stopped, and then does nothing: shutdown has
    /// already resolved every request and closed every socket.
    fn tick(&self, now_ms: f64) -> bool {
        let mut core = self.core.lock().expect("core lock");
        let core = &mut *core;
        if core.lifecycle == Lifecycle::Stopped {
            return false;
        }
        self.advance_windows(core, now_ms);
        if core.lifecycle == Lifecycle::Serving {
            for completion in core.device.dispatch(now_ms) {
                core.inflight.push(Reverse(InFlight {
                    finish_ms: completion.finish_ms,
                    internal_id: completion.id,
                    response: InferResponse {
                        id: 0, // patched at flush from the pending entry
                        status: if completion.met_deadline {
                            Status::Completed
                        } else {
                            Status::CompletedLate
                        },
                        level_pos: completion.level_pos as u32,
                        queue_ms: completion.start_ms - completion.arrival_ms,
                        infer_ms: completion.finish_ms - completion.start_ms,
                    },
                }));
            }
        }
        while let Some(Reverse(head)) = core.inflight.peek() {
            if head.finish_ms > now_ms {
                break;
            }
            let Reverse(flight) = core.inflight.pop().expect("peeked");
            core.flush_completion(flight);
        }
        true
    }

    /// A detached snapshot of the live counters, in the same shape the
    /// simulated runs attach to their reports.
    fn snapshot(&self) -> TelemetrySnapshot {
        let core = self.core.lock().expect("core lock");
        let mut snapshot =
            TelemetrySnapshot::from_metrics(TelemetryLevel::Counters, core.metrics());
        snapshot.obs = Some(core.obs.snapshot());
        snapshot
    }
}

/// A running serving front-end. Dropping the handle shuts it down and
/// joins its threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and dispatch threads.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration error as a string.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        spec: ServerSpec,
        config: ServerConfig,
    ) -> Result<Self, String> {
        spec.validate()?;
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind failed: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;

        let mut registry = MetricRegistry::new();
        let ids = TransportIds::register(&mut registry);
        let shard = registry.shard();
        let mut device = DeviceCore::new(
            Battery::new(spec.battery_capacity_j),
            RuntimeController::new(spec.governor.clone(), spec.hysteresis),
            RuntimePolicy::Adaptive,
            DeadlineScheduler::new(config.scheduler),
            Arc::clone(&spec.cost),
            spec.power,
            config.window_ms / 1_000.0,
            TelemetryConfig::counters(),
            Arc::new(WallClock::new()),
        );
        // the boot decision activates the initial level (a load, not a
        // counted switch — same convention as the engine)
        device.begin_window(0.0, None, 0.0, None, |pos, _, _| {
            (spec.level_base_ms[pos], spec.switch_time_ms)
        });
        let core = Core {
            lifecycle: Lifecycle::Serving,
            device,
            next_window_ms: config.window_ms,
            next_internal_id: 0,
            pending: HashMap::new(),
            inflight: std::collections::BinaryHeap::new(),
            registry,
            shard,
            ids,
            connections: Vec::new(),
            obs: ObsPlane::standard(config.window_ms, 1_024),
            window_index: 0,
            subscribers: Vec::new(),
        };
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            start: Instant::now(),
            config,
            spec,
        });

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rt3-serve-dispatch".into())
                .spawn(move || loop {
                    std::thread::sleep(Duration::from_millis(shared.config.tick_ms));
                    if !shared.tick(shared.now_ms()) {
                        break;
                    }
                })
                .expect("spawn dispatch thread")
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rt3-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };

        Ok(Self {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the battery has died and the server is draining (`false`
    /// again once it has been shut down).
    pub fn is_draining(&self) -> bool {
        self.shared.lifecycle() == Lifecycle::Draining
    }

    /// A detached snapshot of the server's live counters — the same data
    /// the metrics command serves over the wire.
    pub fn metrics_snapshot(&self) -> TelemetrySnapshot {
        self.shared.snapshot()
    }

    /// Number of admitted requests whose responses have not been written
    /// yet (queued or in flight).
    pub fn pending_requests(&self) -> usize {
        self.shared.core.lock().expect("core lock").pending.len()
    }

    /// Graceful shutdown: queued and in-flight requests resolve with
    /// explicit codes, every connection is closed, threads are joined.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut core = self.shared.core.lock().expect("core lock");
            let core = &mut *core;
            if core.lifecycle == Lifecycle::Stopped {
                return;
            }
            core.lifecycle = Lifecycle::Stopped;
            let dropped = core.device.drain_queue();
            core.shard
                .add(core.ids.dropped_shutdown, dropped.len() as u64);
            core.resolve_all(dropped, Status::DroppedShutdown);
            for conn in core.connections.drain(..) {
                if let Some(conn) = conn.upgrade() {
                    conn.send(&ServerFrame::encode_terminal(TERMINAL_SHUTDOWN));
                    conn.shutdown();
                }
            }
        }
        // unblock the acceptor's blocking accept()
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        let lifecycle = shared.lifecycle();
        if lifecycle == Lifecycle::Stopped {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        if lifecycle == Lifecycle::Draining {
            // battery died: refuse with a terminal code instead of a
            // silent reset, then close
            let mut stream = stream;
            let _ = write_frame(
                &mut stream,
                &ServerFrame::encode_terminal(TERMINAL_BATTERY_DEAD),
            );
            let mut core = shared.core.lock().expect("core lock");
            let id = core.ids.connections_refused_dead;
            core.shard.add(id, 1);
            continue;
        }
        let shared = Arc::clone(shared);
        // small stacks keep thousands of connection threads affordable
        let spawned = std::thread::Builder::new()
            .name("rt3-serve-conn".into())
            .stack_size(128 * 1024)
            .spawn(move || serve_connection(stream, &shared));
        if spawned.is_err() {
            // thread exhaustion: the kernel closes the socket; clients see
            // a reset rather than a hang
            continue;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // socket deadlines are set once here and shared by the try_clone'd
    // read half — SO_RCVTIMEO/SO_SNDTIMEO are per-socket, not per-handle
    if stream.set_read_timeout(shared.config.read_timeout).is_err()
        || stream
            .set_write_timeout(shared.config.write_timeout)
            .is_err()
    {
        return;
    }
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
    });
    {
        let mut core = shared.core.lock().expect("core lock");
        if core.lifecycle == Lifecycle::Stopped {
            // accepted just before the shutdown, which could not close a
            // connection it never saw
            writer.send(&ServerFrame::encode_terminal(TERMINAL_SHUTDOWN));
            writer.shutdown();
            return;
        }
        let id = core.ids.connections_opened;
        core.shard.add(id, 1);
        core.connections.push(Arc::downgrade(&writer));
    }
    let mut reader = std::io::BufReader::new(reader);
    loop {
        let frame = match read_frame(&mut reader, shared.config.max_frame_len) {
            Ok(Some(body)) => body,
            Ok(None) => break,
            Err(error) if error.is_timeout() => {
                // a hung peer: reap the connection with an explicit
                // terminal status so the timeout is never a silent reset
                {
                    let mut core = shared.core.lock().expect("core lock");
                    let id = core.ids.connections_timed_out;
                    core.shard.add(id, 1);
                }
                writer.send(&ServerFrame::encode_terminal(TERMINAL_IDLE_TIMEOUT));
                writer.shutdown();
                break;
            }
            Err(error) => {
                protocol_error(shared, &writer, &error);
                break;
            }
        };
        match ClientFrame::decode(&frame) {
            Ok(ClientFrame::Infer {
                id,
                deadline_budget_ms,
                payload_len: _,
            }) => handle_infer(shared, &writer, id, deadline_budget_ms),
            Ok(ClientFrame::Metrics) => {
                let jsonl = shared.snapshot().to_jsonl(&[("source", "rt3-serve")]);
                if !writer.send(&ServerFrame::encode_metrics(&jsonl)) {
                    break;
                }
            }
            Ok(ClientFrame::Subscribe) => {
                // a subscriber becomes a dedicated push channel: it sends
                // nothing further, so the idle-reaper read timeout must not
                // apply (SO_RCVTIMEO is per-socket and shared with our
                // cloned read half)
                {
                    let stream = writer.stream.lock().expect("writer lock");
                    let _ = stream.set_read_timeout(None);
                }
                // register + catch-up atomically under the core lock, so no
                // window chunk can be pushed before the catch-up (same
                // core-then-stream lock order as the window push itself)
                let sent = {
                    let mut core = shared.core.lock().expect("core lock");
                    core.subscribers.push(Arc::downgrade(&writer));
                    let mut catch_up = core
                        .obs
                        .snapshot()
                        .to_jsonl_lines(&[("source", "rt3-serve")])
                        .join("\n");
                    catch_up.push('\n');
                    writer.send(&ServerFrame::encode_obs(&catch_up))
                };
                if !sent {
                    break;
                }
            }
            Err(error) => {
                protocol_error(shared, &writer, &error);
                break;
            }
        }
    }
    let mut core = shared.core.lock().expect("core lock");
    let id = core.ids.connections_closed;
    core.shard.add(id, 1);
}

/// A malformed or oversized frame poisons only its own connection: count
/// it, tell the peer, close. Pending responses for *other* connections are
/// untouched; pending responses for this connection will fail their write
/// and be counted as `responses_failed`.
fn protocol_error(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, error: &ProtocolError) {
    let counted = !matches!(error, ProtocolError::Io(_));
    if counted {
        let mut core = shared.core.lock().expect("core lock");
        let id = core.ids.protocol_errors;
        core.shard.add(id, 1);
        writer.send(&ServerFrame::encode_terminal(TERMINAL_PROTOCOL_ERROR));
    }
    writer.shutdown();
}

fn handle_infer(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, client_id: u64, budget_ms: f64) {
    let now_ms = shared.now_ms();
    let mut core = shared.core.lock().expect("core lock");
    let core = &mut *core;
    if core.lifecycle == Lifecycle::Stopped {
        // the frame was read before the shutdown took the lock. The
        // shutdown already closed this connection with a terminal frame,
        // which is the client's answer; this request was never admitted,
        // so it counts as no drop, and the write below fails and is counted
        // like any other failed response.
        let response = core.unserved(client_id, Status::DroppedShutdown);
        core.send(writer, &response);
        return;
    }
    // catch up on window boundaries the dispatch thread hasn't ticked yet,
    // so admission always sees the current level and battery state
    shared.advance_windows(core, now_ms);
    if core.lifecycle == Lifecycle::Draining {
        core.shard.add(core.ids.draining_refused, 1);
        let response = core.unserved(client_id, Status::Draining);
        core.send(writer, &response);
        return;
    }
    let internal_id = core.next_internal_id;
    core.next_internal_id += 1;
    let request = Request {
        id: internal_id,
        arrival_ms: now_ms,
        deadline_ms: now_ms + budget_ms,
    };
    match core.device.try_admit(request) {
        Ok(_) => {
            core.pending.insert(
                internal_id,
                PendingEntry {
                    client_id,
                    conn: Arc::clone(writer),
                },
            );
        }
        Err(reason) => {
            let status = match reason {
                RejectReason::QueueFull => Status::RejectedQueueFull,
                RejectReason::CertainMiss => Status::RejectedCertainMiss,
            };
            let response = core.unserved(client_id, status);
            core.send(writer, &response);
        }
    }
}
