//! The bank-free device state machine every serving path steps one
//! governor window at a time: [`crate::ServeEngine`] and [`crate::Fleet`]
//! wrap a [`DeviceCore`] with a model bank and report accumulators, and the
//! `rt3-server` socket front-end steps one on the wall clock.

use crate::controller::{RuntimeController, Telemetry};
use crate::cost::CostModel;
use crate::engine::RuntimePolicy;
use crate::scheduler::{Completion, DeadlineScheduler, RejectReason, Request};
use rt3_hardware::{Battery, DrainRateTracker, PowerModel, VfLevel};
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
}

impl DeviceCore {
    /// Builds a device around pre-constructed components. `battery` may be
    /// partially drained (fleet devices start at heterogeneous charge);
    /// `window_s` is the spacing of [`DeviceCore::begin_window`] calls.
    pub fn new(
        battery: Battery,
        controller: RuntimeController,
        policy: RuntimePolicy,
        scheduler: DeadlineScheduler,
        cost: Arc<dyn CostModel>,
        power: PowerModel,
        window_s: f64,
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
        start
    }

    /// Admission control at the active level; returns the predicted finish.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's [`RejectReason`] when the request is turned
    /// away.
    pub fn try_admit(&mut self, request: Request) -> Result<f64, RejectReason> {
        self.scheduler.submit(request, self.service_estimator())
    }

    /// Dispatches every batch that can start before `until_ms` and draws
    /// each request's energy: each worker is one core of the cluster, so a
    /// request costs (cluster power / workers) × its share of the batch.
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
        completions
    }

    /// Draws a window's always-on background load.
    pub fn drain_background(&mut self, energy_j: f64) {
        self.background_energy_j += energy_j;
        self.draw(energy_j);
    }

    /// Drops every queued request and hands them back.
    pub fn drain_queue(&mut self) -> Vec<Request> {
        self.scheduler.drain_queue()
    }
}
