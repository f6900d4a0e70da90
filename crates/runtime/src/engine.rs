//! The serving engine: plays a [`Scenario`] against the model bank, the
//! battery-aware controller and the deadline scheduler, producing a
//! [`ServeReport`].
//!
//! The loop advances in one-second windows of simulated time. At each
//! boundary it reads telemetry (battery state of charge, thermal cap),
//! lets the [`RuntimeController`] pick a level, performs the pattern-set
//! switch when the level changed — charging [`SwitchCost::time_ms`] to the
//! workers and its memory traffic to the battery — then admits and
//! dispatches that window's arrivals. Dispatched micro-batches are also
//! replayed as real sparse inference on the [`crate::pool`] worker pool.
//! The battery, controller and scheduler step lives in [`DeviceCore`],
//! which also records the device metrics; `DeviceSim` adds the model bank,
//! its telemetry and the report accumulators.

use crate::bank::{BankStats, ModelBank};
use crate::controller::{HysteresisConfig, RuntimeController};
use crate::cost::{Analytic, CostConfig, CostModel, LatencyModel};
use crate::device::DeviceCore;
use crate::pool;
use crate::report::{ServeReport, WindowReport};
use crate::scenario::Scenario;
use crate::scheduler::{Completion, DeadlineScheduler, Request, SchedulerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt3_core::{Rt3Config, SearchOutcome};
use rt3_hardware::{Battery, MemoryModel, PowerModel};
use rt3_pruning::PatternSpace;
use rt3_telemetry::{StreamingHistogram, TelemetryConfig, WallClock};
use rt3_transformer::Model;
use std::sync::Arc;

/// Length of one simulation window in (simulated) seconds; scenario rates
/// are per-second, so power (W) converts to energy (J) via this factor.
pub(crate) const WINDOW_S: f64 = 1.0;
/// Length of one simulation window in milliseconds.
pub(crate) const WINDOW_MS: f64 = WINDOW_S * 1_000.0;

/// How the engine picks V/F levels at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimePolicy {
    /// Battery-aware reconfiguration: follow the governor with hysteresis
    /// and switch pattern sets alongside the level (the paper's approach).
    Adaptive,
    /// No reconfiguration: stay at one governor level position with its
    /// banked model for the whole trace (the E1-style baseline).
    FixedLevel(usize),
}

impl RuntimePolicy {
    /// Report label.
    pub fn label(&self, config: &Rt3Config) -> String {
        match *self {
            RuntimePolicy::Adaptive => "adaptive".to_string(),
            RuntimePolicy::FixedLevel(pos) => {
                let index = config
                    .governor
                    .levels()
                    .get(pos)
                    .map(|l| l.index)
                    .unwrap_or(pos);
                format!("fixed-l{index}")
            }
        }
    }
}

/// Serving-engine parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Battery capacity for the trace, joules.
    pub battery_capacity_j: f64,
    /// Per-request deadline: arrival + this budget, milliseconds. Should be
    /// a small multiple of the timing constraint to absorb queueing.
    pub deadline_budget_ms: f64,
    /// Scheduler parameters.
    pub scheduler: SchedulerConfig,
    /// Controller hysteresis.
    pub hysteresis: HysteresisConfig,
    /// Shared cost-model configuration (batch amortisation) used to build
    /// the default [`Analytic`] model; swap the whole model with
    /// [`ServeEngine::set_cost_model`].
    pub cost: CostConfig,
    /// Level-selection policy.
    pub policy: RuntimePolicy,
    /// Replay every dispatched micro-batch as real sparse inference on the
    /// worker pool (disable for pure-simulation parameter sweeps).
    pub real_inference: bool,
    /// Traffic seed.
    pub seed: u64,
    /// What the run records ([`rt3_telemetry::TelemetryLevel::Off`] by
    /// default — behaviour and output identical to an uninstrumented build).
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            battery_capacity_j: 60.0,
            deadline_budget_ms: 400.0,
            scheduler: SchedulerConfig::default(),
            hysteresis: HysteresisConfig::default(),
            cost: CostConfig::default(),
            policy: RuntimePolicy::Adaptive,
            real_inference: true,
            seed: 0x7233,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.battery_capacity_j > 0.0 && self.battery_capacity_j.is_finite()) {
            return Err("battery_capacity_j must be positive and finite".into());
        }
        if self.deadline_budget_ms <= 0.0 || self.deadline_budget_ms.is_nan() {
            return Err("deadline_budget_ms must be positive".into());
        }
        self.cost.validate()?;
        self.scheduler.validate()?;
        self.hysteresis.validate()?;
        self.telemetry.validate()?;
        Ok(())
    }
}

/// The online serving engine.
pub struct ServeEngine<'m, M: Model> {
    /// Moved into the per-run [`DeviceSim`] and restored afterwards, so the
    /// bank stays warm across runs; always `Some` between calls.
    bank: Option<ModelBank<'m, M>>,
    rt3: Rt3Config,
    cost: Arc<dyn CostModel>,
    power: PowerModel,
    config: ServeConfig,
}

impl<'m, M: Model> ServeEngine<'m, M> {
    /// Builds an engine from the offline artifacts: the live model, the
    /// Level-1 backbone masks, the Level-2 pattern space and the search's
    /// best solution.
    ///
    /// # Panics
    ///
    /// Panics if the search outcome has no feasible best solution, the
    /// action count differs from the governor's level count, or the serve
    /// configuration is invalid.
    pub fn new(
        model: &'m M,
        backbone_masks: rt3_transformer::MaskSet,
        space: &PatternSpace,
        outcome: &SearchOutcome,
        rt3: Rt3Config,
        config: ServeConfig,
    ) -> Self {
        config.validate().expect("invalid serve configuration");
        let best = outcome
            .best
            .as_ref()
            .expect("search outcome has no feasible solution to serve");
        assert_eq!(
            best.actions.len(),
            rt3.governor.levels().len(),
            "one action per governor level is required"
        );
        if let RuntimePolicy::FixedLevel(pos) = config.policy {
            assert!(
                pos < rt3.governor.levels().len(),
                "fixed level position {pos} outside the governor's {} levels",
                rt3.governor.levels().len()
            );
        }
        let bank = ModelBank::new(
            model,
            backbone_masks,
            space,
            &best.actions,
            MemoryModel::odroid_xu3(),
            rt3.governor.levels().len(),
        );
        let cost = Arc::new(Analytic::new(
            LatencyModel {
                predictor: rt3.predictor,
                workload_config: rt3.workload_config.clone(),
                seq_len: rt3.seq_len,
            },
            config.cost,
        ));
        Self {
            bank: Some(bank),
            rt3,
            cost,
            power: PowerModel::cortex_a7(),
            config,
        }
    }

    /// The model bank (for inspection).
    pub fn bank(&self) -> &ModelBank<'m, M> {
        self.bank.as_ref().expect("bank is restored after each run")
    }

    /// The cost model used for deadline accounting and admission estimates.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// Replaces the cost model (e.g. with a [`crate::cost::Calibrated`]
    /// model from a [`crate::cost::calibrate`] pass); subsequent runs use
    /// it for every prediction.
    pub fn set_cost_model(&mut self, cost: Arc<dyn CostModel>) {
        self.cost = cost;
    }

    /// Plays `scenario` to completion and reports the outcome.
    pub fn run(&mut self, scenario: &Scenario) -> ServeReport {
        let core = DeviceCore::new(
            Battery::new(self.config.battery_capacity_j),
            RuntimeController::new(self.rt3.governor.clone(), self.config.hysteresis),
            self.config.policy,
            DeadlineScheduler::new(self.config.scheduler),
            Arc::clone(&self.cost),
            self.power,
            WINDOW_S,
            self.config.telemetry,
            Arc::new(WallClock::new()),
        );
        let mut device = DeviceSim::new(
            core,
            self.bank.take().expect("bank is restored after each run"),
            self.config.real_inference,
            scenario.duration_s(),
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut next_id = 0u64;

        for t_s in 0..scenario.duration_s() {
            let now_ms = t_s as f64 * WINDOW_MS;
            let window_end_ms = now_ms + WINDOW_MS;

            let serving = device.begin_window(
                t_s,
                now_ms,
                scenario.battery_cliff(t_s),
                scenario.charge_w(t_s) * WINDOW_S,
                scenario.thermal_cap(t_s),
            );
            let arrival_offsets = scenario.arrivals_in_second(t_s, &mut rng);

            if !serving {
                device.record_dead_window(t_s, arrival_offsets.len() as u64);
                continue;
            }

            let mut rejected_window = 0u64;
            for offset in &arrival_offsets {
                let arrival_ms = now_ms + offset;
                let request = Request {
                    id: next_id,
                    arrival_ms,
                    deadline_ms: arrival_ms + self.config.deadline_budget_ms,
                };
                next_id += 1;
                if device.core.try_admit(request).is_err() {
                    rejected_window += 1;
                }
            }

            device.end_window(
                t_s,
                window_end_ms,
                arrival_offsets.len() as u64,
                rejected_window,
                scenario.background_w(t_s) * WINDOW_S,
            );
        }

        let (report, bank) = device.into_report(
            scenario.name().to_string(),
            self.config.policy.label(&self.rt3),
        );
        self.bank = Some(bank);
        report
    }
}

/// One simulated device stepped window-by-window: the shared
/// [`DeviceCore`] plus its model bank, the bank and pool telemetry, and the
/// serve-report accumulators.
///
/// [`ServeEngine::run`] drives a single `DeviceSim` from a [`Scenario`];
/// [`crate::Fleet`] drives several of them from a
/// [`crate::FleetScenario`], with arrivals assigned by the router instead of
/// taken straight from the trace.
pub(crate) struct DeviceSim<'m, M: Model> {
    /// Battery, controller, scheduler and energy accounting.
    pub(crate) core: DeviceCore,
    bank: ModelBank<'m, M>,
    real_inference: bool,
    /// Whether the current window's [`DeviceSim::begin_window`] performed a
    /// counted pattern-set switch (recorded on the window report).
    last_switched: bool,
    /// Bank statistics already folded into the telemetry counters; the
    /// per-window delta against [`ModelBank::stats`] is what gets recorded
    /// (the bank may arrive pre-warmed from an earlier run).
    bank_stats_seen: BankStats,
    // report accumulators
    windows: Vec<WindowReport>,
    latency_hist: StreamingHistogram,
    runs_per_level: Vec<u64>,
    arrivals_total: u64,
    completed: u64,
    missed: u64,
    died_at_s: Option<u32>,
    dropped_dead: u64,
    checksum: f64,
    real_batches: u64,
}

impl<'m, M: Model> DeviceSim<'m, M> {
    /// Wraps `core` with its model bank and report accumulators.
    pub(crate) fn new(
        core: DeviceCore,
        bank: ModelBank<'m, M>,
        real_inference: bool,
        duration_hint_s: u32,
    ) -> Self {
        let level_count = core.level_count();
        let bank_stats_seen = bank.stats();
        Self {
            core,
            bank,
            real_inference,
            last_switched: false,
            bank_stats_seen,
            windows: Vec::with_capacity(duration_hint_s as usize),
            latency_hist: StreamingHistogram::new(),
            runs_per_level: vec![0; level_count],
            arrivals_total: 0,
            completed: 0,
            missed: 0,
            died_at_s: None,
            dropped_dead: 0,
            checksum: 0.0,
            real_batches: 0,
        }
    }

    /// [`DeviceCore::begin_window`] for the window starting at `t_s`, with
    /// the bank supplying switch costs and lazily building the new level's
    /// model. Returns `false` when the device is (now) dead; the caller
    /// must then finish the window with [`DeviceSim::record_dead_window`]
    /// instead of admitting traffic.
    pub(crate) fn begin_window(
        &mut self,
        t_s: u32,
        now_ms: f64,
        battery_cliff: Option<f64>,
        charge_j: f64,
        thermal_cap: Option<usize>,
    ) -> bool {
        let bank = &mut self.bank;
        let clock = self.core.telemetry.as_ref().map(|t| Arc::clone(&t.clock));
        let mut build_wall_ms = None;
        let start = self.core.begin_window(
            now_ms,
            battery_cliff,
            charge_j,
            thermal_cap,
            |level_pos, level, cost| {
                let switch = bank.switch_cost(level_pos);
                let build_timer = clock.as_ref().map(|c| (bank.stats().builds, c.now_ms()));
                let sparsity = bank.get(level_pos).sparsity; // lazy build
                if let (Some((builds_before, begin_ms)), Some(c)) = (build_timer, &clock) {
                    if bank.stats().builds > builds_before {
                        build_wall_ms = Some(c.now_ms() - begin_ms);
                    }
                }
                (cost.base_latency_ms(sparsity, level), switch.time_ms)
            },
        );
        if let (Some(ms), Some(t)) = (build_wall_ms, &mut self.core.telemetry) {
            t.shard.record(t.ids.bank_build_wall_ms, ms);
        }
        if !start.serving {
            self.died_at_s.get_or_insert(t_s);
            return false;
        }
        self.last_switched = start.switched_from.is_some();
        true
    }

    /// Finishes a window on a dead device: queued and incoming requests are
    /// lost, and a dead window report is recorded. Returns the queued
    /// requests the death dropped so closed-loop callers can retry them
    /// elsewhere; open-loop callers ignore the return.
    pub(crate) fn record_dead_window(&mut self, t_s: u32, arrivals: u64) -> Vec<Request> {
        self.arrivals_total += arrivals;
        let dropped_requests = self.core.drop_queue(t_s as f64 * WINDOW_MS);
        self.dropped_dead += dropped_requests.len() as u64 + arrivals;
        if let Some(t) = &mut self.core.telemetry {
            // this window's arrivals never became requests (no ids), so
            // they leave no individual trace
            t.shard.add(t.ids.dropped_dead, arrivals);
            // dead windows still scrape: the cliff alert's view of the
            // battery gauges must continue through death
            t.observe_window(t_s, (t_s + 1) as f64 * WINDOW_MS);
        }
        self.windows.push(WindowReport {
            t_s,
            level_pos: None,
            state_of_charge: self.core.battery().state_of_charge(),
            arrivals,
            completed: 0,
            missed: 0,
            rejected: 0,
            switched: false,
        });
        dropped_requests
    }

    /// Dispatches (the core charges each request's energy), replays real
    /// inference, draws the background load and records the window report
    /// for a live window started with [`DeviceSim::begin_window`]. Returns
    /// this window's completions so closed-loop callers can settle
    /// per-request outcomes (deadline met or missed); open-loop callers
    /// ignore the return.
    pub(crate) fn end_window(
        &mut self,
        t_s: u32,
        window_end_ms: f64,
        arrivals: u64,
        rejected_window: u64,
        background_j: f64,
    ) -> Vec<Completion> {
        self.arrivals_total += arrivals;
        let level_pos = self
            .core
            .active_level()
            .expect("window began on a live device");
        let completions = self.core.dispatch(window_end_ms);

        let mut window_missed = 0u64;
        for completion in &completions {
            self.completed += 1;
            self.runs_per_level[completion.level_pos] += 1;
            self.latency_hist.record(completion.latency_ms());
            if !completion.met_deadline {
                window_missed += 1;
            }
        }
        self.missed += window_missed;
        // one pool batch per dispatched micro-batch: the scheduler pushes
        // a batch's completions consecutively, each stamped with the batch
        // size
        let mut batch_sizes: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < completions.len() {
            batch_sizes.push(completions[i].batch);
            i += completions[i].batch;
        }

        // replay the dispatched batches as real sparse inference; with
        // telemetry on, every worker times its batches and the timings fold
        // into the device shard after the join
        if self.real_inference && !batch_sizes.is_empty() {
            let workers = self.core.scheduler().workers();
            let outcome = match &mut self.core.telemetry {
                Some(t) => {
                    let (pool_telemetry, shard) = t.pool_view();
                    pool::run_batches_instrumented(
                        self.bank.get(level_pos),
                        &batch_sizes,
                        workers,
                        &pool_telemetry,
                        shard,
                    )
                }
                None => pool::run_batches(self.bank.get(level_pos), &batch_sizes, workers),
            };
            self.checksum += outcome.checksum;
            self.real_batches += outcome.batches;
        }

        self.core.drain_background(background_j);

        if let Some(t) = &mut self.core.telemetry {
            // fold this window's bank activity (hits from pool lookups,
            // builds/evictions from switches) into the counters
            let stats = self.bank.stats();
            t.shard
                .add(t.ids.bank_hits, stats.hits - self.bank_stats_seen.hits);
            t.shard.add(
                t.ids.bank_builds,
                stats.builds - self.bank_stats_seen.builds,
            );
            t.shard.add(
                t.ids.bank_evictions,
                stats.evictions - self.bank_stats_seen.evictions,
            );
            self.bank_stats_seen = stats;
            // window boundary: scrape the shard into the live series and
            // evaluate the alert rules (Full only; deterministic under seed)
            t.observe_window(t_s, window_end_ms);
        }

        self.windows.push(WindowReport {
            t_s,
            level_pos: Some(level_pos),
            state_of_charge: self.core.battery().state_of_charge(),
            arrivals,
            completed: completions.len() as u64,
            missed: window_missed,
            rejected: rejected_window,
            switched: self.last_switched,
        });
        completions
    }

    /// Finalises the run: drops leftover queue entries and assembles the
    /// [`ServeReport`]. Returns the bank alongside so callers that own it
    /// (the single-device engine) can keep it warm across runs.
    pub(crate) fn into_report(
        mut self,
        scenario: String,
        policy: String,
    ) -> (ServeReport, ModelBank<'m, M>) {
        // requests still queued when the trace ends count as misses, but are
        // reported separately from admission rejections
        let end_ms = self
            .windows
            .last()
            .map_or(0.0, |w| (w.t_s + 1) as f64 * WINDOW_MS);
        let leftover = self.core.drop_queue(end_ms).len() as u64;
        let core = self.core;
        let telemetry = core.telemetry.as_ref().map(|t| t.snapshot());
        let rejected =
            core.scheduler().rejected_queue_full() + core.scheduler().rejected_certain_miss();
        let report = ServeReport {
            scenario,
            policy,
            cost_model: core.cost_model().label().to_string(),
            windows: self.windows,
            arrivals: self.arrivals_total,
            completed: self.completed,
            missed_deadline: self.missed,
            rejected,
            dropped_dead_battery: self.dropped_dead,
            dropped_at_trace_end: leftover,
            latency_hist: self.latency_hist,
            switches: core.switches,
            switch_time_ms: core.switch_time_ms,
            inference_energy_j: core.inference_energy_j,
            background_energy_j: core.background_energy_j,
            runs_per_level: self.runs_per_level,
            final_state_of_charge: core.battery().state_of_charge(),
            died_at_s: self.died_at_s,
            inference_checksum: self.checksum,
            real_batches: self.real_batches,
            telemetry,
        };
        (report, self.bank)
    }
}
