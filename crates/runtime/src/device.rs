//! The bank-free device state machine every serving path steps one
//! governor window at a time: [`crate::ServeEngine`] and [`crate::Fleet`]
//! wrap a [`DeviceCore`] with a model bank and report accumulators, and the
//! `rt3-server` socket front-end steps one on the wall clock.
//!
//! The core also records the device metric schema (DESIGN.md §9) as it
//! steps, so every serving path exports the same numbers for the same
//! device state.

use crate::controller::{RuntimeController, Telemetry};
use crate::cost::CostModel;
use crate::engine::RuntimePolicy;
use crate::scheduler::{Completion, DeadlineScheduler, RejectReason, Request};
use crate::telemetry::DeviceTelemetry;
use rt3_hardware::{Battery, DrainRateTracker, PowerModel, VfLevel};
use rt3_telemetry::{
    Clock, DecisionRecord, MetricsSnapshot, TelemetryConfig, TraceEvent, TraceEventKind,
};
use std::sync::Arc;

/// What [`DeviceCore::begin_window`] observed and did. The battery readings
/// are taken after the window's battery events and before any switch
/// energy is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStart {
    /// Whether the device is alive and serves this window. Death is sticky:
    /// once `false`, it stays `false` even if a charger refills the battery.
    pub serving: bool,
    /// Battery state of charge in `[0, 1]`.
    pub state_of_charge: f64,
    /// EWMA-smoothed drain rate, watts (negative while charging).
    pub drain_rate_w: f64,
    /// Predicted milliseconds until the battery dies at that rate.
    pub time_to_death_ms: f64,
    /// Milliseconds since the previous switch, read before the decision.
    pub dwell_ms: f64,
    /// The governor's raw target for the state of charge, before
    /// hysteresis (the fixed position under [`RuntimePolicy::FixedLevel`]).
    pub raw_target: usize,
    /// The level the window switched away from, when it performed a
    /// counted pattern-set switch (the first activation is a model load,
    /// not a switch).
    pub switched_from: Option<usize>,
    /// Worker time the switch blocked, milliseconds (0 without a switch).
    pub switch_time_ms: f64,
}

/// One device's battery, drain tracker, controller and scheduler, with the
/// active level's cached base latency and the switch and energy totals.
pub struct DeviceCore {
    battery: Battery,
    /// EWMA observer of the battery trajectory, one observation per window;
    /// feeds time-to-death routing and the `battery_cliff` alert.
    drain: DrainRateTracker,
    controller: RuntimeController,
    policy: RuntimePolicy,
    scheduler: DeadlineScheduler,
    cost: Arc<dyn CostModel>,
    power: PowerModel,
    /// Window length the drain tracker observes over, seconds.
    window_s: f64,
    active_level: Option<usize>,
    active_base_latency_ms: f64,
    dead: bool,
    /// Counted pattern-set switches.
    pub(crate) switches: u64,
    /// Worker time blocked by those switches, milliseconds.
    pub(crate) switch_time_ms: f64,
    /// Switch and dispatch energy drawn, joules.
    pub(crate) inference_energy_j: f64,
    /// Background energy drawn, joules.
    pub(crate) background_energy_j: f64,
    /// Telemetry recording state (`None` when the level is `Off`, which
    /// keeps the hot path identical to an uninstrumented build).
    pub(crate) telemetry: Option<DeviceTelemetry>,
}

impl DeviceCore {
    /// Builds a device around pre-constructed components. `battery` may be
    /// partially drained (fleet devices start at heterogeneous charge);
    /// `window_s` is the spacing of [`DeviceCore::begin_window`] calls. The
    /// device records at `telemetry`'s level, timing with `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `telemetry` is invalid.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        battery: Battery,
        controller: RuntimeController,
        policy: RuntimePolicy,
        scheduler: DeadlineScheduler,
        cost: Arc<dyn CostModel>,
        power: PowerModel,
        window_s: f64,
        telemetry: TelemetryConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            battery,
            drain: DrainRateTracker::default(),
            controller,
            policy,
            scheduler,
            cost,
            power,
            window_s,
            active_level: None,
            active_base_latency_ms: 0.0,
            dead: false,
            switches: 0,
            switch_time_ms: 0.0,
            inference_energy_j: 0.0,
            background_energy_j: 0.0,
            telemetry: DeviceTelemetry::new(telemetry, clock, window_s * 1_000.0),
        }
    }

    /// Replaces the cost model before the first window (fleet hook).
    pub(crate) fn set_cost_model(&mut self, cost: Arc<dyn CostModel>) {
        debug_assert!(
            self.active_level.is_none(),
            "cost model must be set before the first window"
        );
        self.cost = cost;
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The scheduler (queue, workers, rejection counts).
    pub fn scheduler(&self) -> &DeadlineScheduler {
        &self.scheduler
    }

    /// The cost model used for admission and dispatch.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// Whether the battery died at some earlier window.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Governor level position in effect, `None` before the first window.
    pub fn active_level(&self) -> Option<usize> {
        self.active_level
    }

    /// Single-request latency of the active level, milliseconds.
    pub fn active_base_latency_ms(&self) -> f64 {
        self.active_base_latency_ms
    }

    /// Number of governor levels the device serves.
    pub fn level_count(&self) -> usize {
        self.controller.governor().levels().len()
    }

    /// The device metrics recorded so far (`None` when telemetry is off).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.telemetry.as_ref().map(DeviceTelemetry::metrics)
    }

    /// Predicted milliseconds until the battery dies at its EWMA-smoothed
    /// drain rate (infinite while charging or unobserved).
    pub fn time_to_death_ms(&self) -> f64 {
        self.drain.time_to_death_ms(self.battery.remaining_j())
    }

    /// Latency a request admitted at `arrival_ms` is predicted to see,
    /// replaying the queued backlog through the closure dispatch uses.
    pub fn predicted_latency_ms(&self, arrival_ms: f64) -> f64 {
        let finish = self
            .scheduler
            .predicted_finish_ms(arrival_ms, &self.service_estimator());
        finish - arrival_ms
    }

    /// The batch→service-time closure admission and routing share with
    /// dispatch. Captures an `Arc` clone so the closure doesn't borrow the
    /// device (admission mutates the scheduler).
    fn service_estimator(&self) -> impl Fn(usize) -> f64 {
        let level_pos = self.active_level.unwrap_or(0);
        let base = self.active_base_latency_ms;
        let cost = Arc::clone(&self.cost);
        move |batch| cost.service_from_base_ms(level_pos, base, batch)
    }

    /// Draws `energy_j`, emptying the battery when less remains.
    fn draw(&mut self, energy_j: f64) {
        if !self.battery.drain(energy_j) {
            self.battery.drain(self.battery.remaining_j());
        }
    }

    /// Battery events (a `battery_cliff` share of capacity lost, `charge_j`
    /// gained), one drain observation, the death check, the level decision
    /// and the pattern-set switch for the window starting at `now_ms`. On a
    /// level change `level_cost(pos, level, cost)` returns the new level's
    /// base latency and the switch's worker time, both in milliseconds.
    /// Records the battery gauges (read before any switch energy is drawn),
    /// the switch, the active level, the decision audit and the window
    /// count.
    pub fn begin_window(
        &mut self,
        now_ms: f64,
        battery_cliff: Option<f64>,
        charge_j: f64,
        thermal_cap: Option<usize>,
        level_cost: impl FnOnce(usize, &VfLevel, &dyn CostModel) -> (f64, f64),
    ) -> WindowStart {
        // battery events occur regardless of serving state
        if let Some(drop) = battery_cliff {
            let loss = drop * self.battery.capacity_j();
            let drained = self.battery.drain(loss.min(self.battery.remaining_j()));
            debug_assert!(drained);
        }
        self.battery.charge(charge_j);
        // one drain observation per window, fed by everything since the
        // previous boundary (inference, background, switches, cliffs,
        // charging)
        self.drain
            .observe(self.window_s, self.battery.remaining_j());
        self.dead |= self.battery.is_empty();
        let state_of_charge = self.battery.state_of_charge();
        let mut start = WindowStart {
            serving: !self.dead,
            state_of_charge,
            drain_rate_w: self.drain.drain_rate_w(),
            time_to_death_ms: self.time_to_death_ms(),
            // the dwell must be read *before* the decision (a switch resets it)
            dwell_ms: self.controller.ms_since_last_switch(now_ms),
            raw_target: match self.policy {
                RuntimePolicy::Adaptive => {
                    self.controller.raw_target(state_of_charge.clamp(0.0, 1.0))
                }
                RuntimePolicy::FixedLevel(pos) => pos,
            },
            switched_from: None,
            switch_time_ms: 0.0,
        };
        if let Some(t) = &mut self.telemetry {
            t.shard.set(t.ids.state_of_charge, start.state_of_charge);
            t.shard.set(t.ids.drain_rate_w, start.drain_rate_w);
            t.shard.set(t.ids.time_to_death_ms, start.time_to_death_ms);
            if self.dead {
                t.shard.add(t.ids.windows_dead, 1);
            }
        }
        if self.dead {
            return start;
        }

        let level_pos = match self.policy {
            RuntimePolicy::Adaptive => {
                self.controller
                    .decide(Telemetry {
                        now_ms,
                        state_of_charge,
                        thermal_cap,
                    })
                    .level_pos
            }
            // the thermal cap is hardware-mandated even for the baseline; it
            // keeps its (dense-for-that-level) model
            RuntimePolicy::FixedLevel(pos) => thermal_cap.map_or(pos, |cap| pos.min(cap)),
        };
        // base latency only changes on a switch, so it is cached here
        // rather than recomputed per window or batch
        if self.active_level != Some(level_pos) {
            let level = self.controller.governor().levels()[level_pos];
            let (base_ms, switch_ms) = level_cost(level_pos, &level, &*self.cost);
            self.active_base_latency_ms = base_ms;
            if let Some(from) = self.active_level {
                // charge the switch's time to the workers and its energy
                // to the battery
                self.switches += 1;
                self.switch_time_ms += switch_ms;
                self.scheduler.block_workers_until(now_ms + switch_ms);
                let energy = self.power.power_w(&level) * switch_ms / 1_000.0;
                self.inference_energy_j += energy;
                self.draw(energy);
                start.switched_from = Some(from);
                start.switch_time_ms = switch_ms;
            }
            self.active_level = Some(level_pos);
        }
        if let Some(t) = &mut self.telemetry {
            if let Some(from_level) = start.switched_from {
                t.shard.add(t.ids.switches, 1);
                t.shard.record(t.ids.switch_time_ms, start.switch_time_ms);
                // device-level span: the window [now, now+cost] blocks
                // every queued request, and the span analyzer charges the
                // overlap to them
                t.trace_event(TraceEvent {
                    t_ms: now_ms,
                    request_id: 0,
                    kind: TraceEventKind::Switch {
                        from_level,
                        to_level: level_pos,
                        duration_ms: start.switch_time_ms,
                    },
                });
            }
            t.shard.set(t.ids.active_level, level_pos as f64);
            if t.full() {
                // `switched` records the *counted* switch (the first model
                // activation is a load, not a switch), so the audited
                // switch count reconciles exactly with the report's
                t.audit_decision(DecisionRecord {
                    t_ms: now_ms,
                    state_of_charge,
                    thermal_cap,
                    raw_target: start.raw_target,
                    chosen_level: level_pos,
                    switched: start.switched_from.is_some(),
                    dwell_ms: start.dwell_ms,
                    time_to_death_ms: start.time_to_death_ms,
                    predicted_latency_ms: self.active_base_latency_ms,
                });
            }
            t.shard.add(t.ids.windows_served, 1);
        }
        start
    }

    /// Admission control at the active level; returns the predicted finish
    /// and records the admission or the rejection.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's [`RejectReason`] when the request is turned
    /// away.
    pub fn try_admit(&mut self, request: Request) -> Result<f64, RejectReason> {
        let result = self.scheduler.submit(request, self.service_estimator());
        if let Some(t) = &mut self.telemetry {
            match result {
                Ok(predicted_finish_ms) => {
                    // the admission-time prediction is what the residuals
                    // compare the actual completion latency against — the
                    // certain-miss check already replayed the backlog, so
                    // the audit reuses its answer instead of simulating the
                    // queue a second time
                    let predicted_ms = predicted_finish_ms - request.arrival_ms;
                    let queue_depth = self.scheduler.queue_len();
                    t.shard.add(t.ids.admitted, 1);
                    t.shard.set(t.ids.queue_depth, queue_depth as f64);
                    t.note_prediction(request.id, predicted_ms);
                    t.trace_event(TraceEvent {
                        t_ms: request.arrival_ms,
                        request_id: request.id,
                        kind: TraceEventKind::Admit {
                            deadline_ms: request.deadline_ms,
                            queue_depth,
                            predicted_ms,
                        },
                    });
                }
                Err(reason) => {
                    let (counter, label) = match reason {
                        RejectReason::QueueFull => (t.ids.rejected_queue_full, "queue-full"),
                        RejectReason::CertainMiss => (t.ids.rejected_certain_miss, "certain-miss"),
                    };
                    t.shard.add(counter, 1);
                    t.trace_event(TraceEvent {
                        t_ms: request.arrival_ms,
                        request_id: request.id,
                        kind: TraceEventKind::Reject { reason: label },
                    });
                }
            }
        }
        result
    }

    /// Dispatches every batch that can start before `until_ms` and draws
    /// each request's energy: each worker is one core of the cluster, so a
    /// request costs (cluster power / workers) × its share of the batch.
    /// Records each completion, each batch and the queue depth left behind.
    ///
    /// # Panics
    ///
    /// Panics before the first live [`DeviceCore::begin_window`].
    pub fn dispatch(&mut self, until_ms: f64) -> Vec<Completion> {
        let level_pos = self.active_level.expect("dispatch needs an active level");
        let base = self.active_base_latency_ms;
        let cost = &self.cost;
        let completions = self.scheduler.dispatch(until_ms, level_pos, |batch| {
            cost.service_from_base_ms(level_pos, base, batch)
        });
        let level = self.controller.governor().levels()[level_pos];
        let core_power_w = self.power.power_w(&level) / self.scheduler.workers() as f64;
        for completion in &completions {
            let service_share =
                (completion.finish_ms - completion.start_ms) / completion.batch as f64;
            let energy = core_power_w * service_share / 1_000.0;
            self.inference_energy_j += energy;
            self.draw(energy);
        }
        if let Some(t) = &mut self.telemetry {
            for completion in &completions {
                t.shard.add(t.ids.completed, 1);
                t.shard.record(t.ids.latency_ms, completion.latency_ms());
                t.shard.record(
                    t.ids.queue_wait_ms,
                    completion.start_ms - completion.arrival_ms,
                );
                t.shard
                    .record(t.ids.infer_ms, completion.finish_ms - completion.start_ms);
                if !completion.met_deadline {
                    t.shard.add(t.ids.deadline_missed, 1);
                }
                if t.full() {
                    let predicted_ms =
                        t.settle_prediction(completion.id, Some(completion.latency_ms()));
                    t.trace_event(TraceEvent {
                        t_ms: completion.finish_ms,
                        request_id: completion.id,
                        kind: TraceEventKind::Complete {
                            arrival_ms: completion.arrival_ms,
                            start_ms: completion.start_ms,
                            finish_ms: completion.finish_ms,
                            batch: completion.batch,
                            level_pos: completion.level_pos,
                            met_deadline: completion.met_deadline,
                            predicted_ms,
                        },
                    });
                }
            }
            // the scheduler pushes a batch's completions consecutively and
            // stamps each with the batch size, so stepping by that size
            // recovers the batches even when several start at the same
            // instant on different workers
            let mut i = 0;
            while i < completions.len() {
                let batch = completions[i].batch;
                t.shard.record(t.ids.batch_size, batch as f64);
                // one Infer span per dispatched batch (stamped with the
                // batch's first request) bounds trace volume
                t.trace_event(TraceEvent {
                    t_ms: completions[i].start_ms,
                    request_id: completions[i].id,
                    kind: TraceEventKind::Infer {
                        start_ms: completions[i].start_ms,
                        batch,
                        level_pos,
                    },
                });
                i += batch;
            }
            t.shard
                .set(t.ids.queue_depth, self.scheduler.queue_len() as f64);
        }
        completions
    }

    /// Draws a window's always-on background load.
    pub fn drain_background(&mut self, energy_j: f64) {
        self.background_energy_j += energy_j;
        self.draw(energy_j);
    }

    /// Drops every queued request and hands them back, recording nothing:
    /// the caller accounts for them (the socket server's shutdown).
    pub fn drain_queue(&mut self) -> Vec<Request> {
        self.scheduler.drain_queue()
    }

    /// Drops every queued request as lost at `t_ms` and hands them back,
    /// recording each drop: to the dead battery once the device has died
    /// (the queue depth then reads 0), otherwise to the end of the trace
    /// (a live device's queue is lost only when its trace ends, and the
    /// depth keeps its last reading).
    pub fn drop_queue(&mut self, t_ms: f64) -> Vec<Request> {
        let dropped = self.scheduler.drain_queue();
        if let Some(t) = &mut self.telemetry {
            let (counter, reason) = if self.dead {
                t.shard.set(t.ids.queue_depth, 0.0);
                (t.ids.dropped_dead, "dead-battery")
            } else {
                (t.ids.dropped_trace_end, "trace-end")
            };
            t.shard.add(counter, dropped.len() as u64);
            for request in &dropped {
                t.settle_prediction(request.id, None);
                t.trace_event(TraceEvent {
                    t_ms,
                    request_id: request.id,
                    kind: TraceEventKind::Drop { reason },
                });
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::HysteresisConfig;
    use crate::cost::{Analytic, CostConfig, LatencyModel};
    use crate::scheduler::SchedulerConfig;
    use rt3_hardware::{DvfsGovernor, PerformancePredictor};
    use rt3_telemetry::WallClock;
    use rt3_transformer::TransformerConfig;

    /// After every `begin_window` the exported battery gauges must carry
    /// the window's readings: `state_of_charge` and `drain_rate_w` as
    /// [`WindowStart`] reports them (taken before any switch energy is
    /// drawn), and `time_to_death_ms` as the [`DrainRateTracker`] returns
    /// it — the router and the dashboards must agree on when a device
    /// dies, and the simulator and the socket server, which both step this
    /// core, on what the battery read.
    #[test]
    fn time_to_death_gauge_tracks_the_drain_rate_tracker() {
        let cost = Arc::new(Analytic::new(
            LatencyModel {
                predictor: PerformancePredictor::cortex_a7(),
                workload_config: TransformerConfig::paper_transformer(512),
                seq_len: 24,
            },
            CostConfig::default(),
        ));
        let mut core = DeviceCore::new(
            Battery::new(10.0),
            RuntimeController::new(DvfsGovernor::paper_default(), HysteresisConfig::default()),
            RuntimePolicy::Adaptive,
            DeadlineScheduler::new(SchedulerConfig::default()),
            cost,
            PowerModel::cortex_a7(),
            1.0,
            TelemetryConfig::counters(),
            Arc::new(WallClock::new()),
        );
        // a 50 ms switch draws energy the gauges must not see
        let level_cost = |_: usize, _: &VfLevel, _: &dyn CostModel| (10.0, 50.0);

        let mut switched_windows = 0;
        for t_s in 0..8u32 {
            let start = core.begin_window(t_s as f64 * 1_000.0, None, 0.0, None, level_cost);
            let metrics = core.metrics().expect("telemetry is on at Counters");
            let gauge = |name: &str| {
                metrics
                    .gauge(name)
                    .expect("gauge is registered and set every window")
            };
            assert_eq!(
                gauge("state_of_charge"),
                start.state_of_charge,
                "window {t_s}"
            );
            assert_eq!(gauge("drain_rate_w"), start.drain_rate_w, "window {t_s}");
            let time_to_death = gauge("time_to_death_ms");
            assert_eq!(time_to_death, start.time_to_death_ms, "window {t_s}");
            if start.switched_from.is_some() {
                switched_windows += 1;
                assert!(
                    core.battery().state_of_charge() < start.state_of_charge,
                    "window {t_s}: the switch draws energy after the reading"
                );
            } else {
                assert_eq!(
                    time_to_death,
                    core.time_to_death_ms(),
                    "window {t_s}: exported gauge must match the tracker"
                );
            }
            if t_s == 0 {
                // no drain observed yet: the tracker reports an infinite
                // horizon and the gauge must carry it through unchanged
                assert!(time_to_death.is_infinite());
            } else if start.serving {
                assert!(
                    time_to_death.is_finite() && time_to_death > 0.0,
                    "window {t_s}: background drain must bound the horizon"
                );
            }
            // background load only: 1.5 W walks the battery down through
            // both governor thresholds and then empties it
            core.drain_background(1.5);
        }
        assert!(core.is_dead(), "the battery empties within the run");
        assert!(
            switched_windows >= 1,
            "the run crosses a governor threshold"
        );
        let metrics = core.metrics().expect("telemetry is on at Counters");
        assert_eq!(metrics.counter("switches"), Some(switched_windows));
        assert_eq!(metrics.gauge("state_of_charge"), Some(0.0));
    }
}
