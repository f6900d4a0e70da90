//! The chaos replay driver and the fleet's only window loop:
//! [`Fleet::run_chaos`] plays a [`ChaosScenario`] with a closed-loop client
//! population, and [`Fleet::run`] is the same call with no overlays and
//! [`ClientPolicy::open_loop`] clients.
//!
//! Each window begins every device (battery events, death checks, level
//! decisions), routes the window's events in offset order with failover,
//! then ends every device's window. The arrival rate is scaled by the
//! active flash-crowd multiplier, and every routed request is an *attempt*
//! owned by a client job. Window-end outcomes ([`crate::Completion`]s and
//! dead-queue drops) are fed back to the owning job, which retries with
//! backoff + jitter or abandons per the [`ClientPolicy`]. Retries are
//! quantised to window granularity: a failure in window `t` retries no
//! earlier than window `t + 1` (its exact due time is preserved inside the
//! target window as the arrival offset).
//!
//! Determinism: arrivals replay from the fleet seed exactly as the
//! open-loop trace draws them; client jitter draws from an independent RNG
//! stream (`seed ⊕ CLIENT_SEED_SALT`) so closing the loop does not perturb
//! the arrival sequence golden traces pin down. Under the open-loop policy
//! the multiplier is 1.0, no arrival is suppressed and no jitter is drawn,
//! so the replay is exactly the open-loop trace.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt3_telemetry::{CounterId, TelemetrySnapshot};
use rt3_transformer::Model;

use crate::engine::{WINDOW_MS, WINDOW_S};
use crate::fleet::Fleet;
use crate::report::FleetReport;
use crate::scenario::Scenario;
use crate::scheduler::{Completion, Request};
use crate::telemetry::{ChaosTelemetry, FleetTelemetry};

use super::clients::{ClientPolicy, ClientReport};
use super::scenario::ChaosScenario;

/// Salt XORed into the fleet seed for the client-side RNG stream, so
/// client jitter never consumes draws from the arrival stream.
const CLIENT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything one chaos run produced: the fleet's view and the clients'.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Chaos scenario name.
    pub chaos: String,
    /// Per-device and router outcomes; its `arrivals` are the attempts the
    /// clients issued. Under [`ClientPolicy::open_loop`] this is exactly
    /// the report [`Fleet::run`] returns.
    pub fleet: FleetReport,
    /// The client population's outcomes.
    pub clients: ClientReport,
    /// Client-side counters mirroring [`ChaosReport::clients`] (`None`
    /// when telemetry is off). Kept independently by the telemetry layer
    /// so the invariant harness can reconcile the two bookkeepers.
    pub client_telemetry: Option<TelemetrySnapshot>,
}

impl ChaosReport {
    /// Drops every wall-clock-measured telemetry series (bank build and
    /// pool batch timings) from the report. What remains is a pure
    /// function of the scenario and seed, so two scrubbed reports of the
    /// same replay compare bit-exactly — the form the replay-exactness
    /// tests assert on.
    pub fn scrub_wall_clock(&mut self) {
        if let Some(t) = &mut self.fleet.telemetry {
            t.scrub_wall_clock();
        }
        for device in &mut self.fleet.devices {
            if let Some(t) = &mut device.telemetry {
                t.scrub_wall_clock();
            }
        }
        if let Some(t) = &mut self.client_telemetry {
            t.scrub_wall_clock();
        }
    }

    /// One-line summary: fleet outcome plus client-side amplification.
    pub fn summary(&self) -> String {
        format!(
            "{:<20} {:<14} {} | fleet miss {:>5.1}% deaths {}",
            self.chaos,
            self.fleet.routing,
            self.clients.summary(),
            100.0 * self.fleet.miss_rate(),
            self.fleet.deaths(),
        )
    }
}

/// One client job's mutable state during the replay.
struct Job {
    /// Attempts issued so far (first attempt included).
    attempts: u32,
    /// Resolved means succeeded, succeeded-late or abandoned.
    resolved: bool,
}

/// One routable event inside a window: a brand-new arrival or a due retry.
struct WindowEvent {
    offset_ms: f64,
    /// `None` = new arrival (job created at issue time, unless
    /// suppressed); `Some(job)` = retry of an existing open job.
    retry_of: Option<usize>,
}

/// The client population's live state: jobs, the outstanding-attempt map,
/// per-window retry queues and the two bookkeepers ([`ClientReport`] and
/// [`ChaosTelemetry`]) the invariant harness later reconciles.
struct ClientLoop<'p> {
    policy: &'p ClientPolicy,
    duration_s: u32,
    jobs: Vec<Job>,
    open_jobs: u64,
    /// Attempt request id → owning job index.
    outstanding: HashMap<u64, usize>,
    /// Retries due per window, as `(offset_ms, job)` pairs.
    retry_due: Vec<Vec<(f64, usize)>>,
    report: ClientReport,
    rng: StdRng,
    telemetry: Option<ChaosTelemetry>,
}

impl<'p> ClientLoop<'p> {
    fn new(
        policy: &'p ClientPolicy,
        duration_s: u32,
        seed: u64,
        telemetry: Option<ChaosTelemetry>,
    ) -> Self {
        Self {
            policy,
            duration_s,
            jobs: Vec::new(),
            open_jobs: 0,
            outstanding: HashMap::new(),
            retry_due: vec![Vec::new(); duration_s as usize],
            report: ClientReport::default(),
            rng: StdRng::seed_from_u64(seed ^ CLIENT_SEED_SALT),
            telemetry,
        }
    }

    /// Adds `delta` to one client telemetry counter (a no-op when
    /// telemetry is off).
    fn count(&mut self, counter: fn(&ChaosTelemetry) -> CounterId, delta: u64) {
        if let Some(ct) = &mut self.telemetry {
            ct.add(counter(ct), delta);
        }
    }

    /// Tries to open a new job for a fresh arrival; `None` when the
    /// population is saturated and the arrival is suppressed instead.
    fn open_job(&mut self) -> Option<usize> {
        if self.open_jobs >= self.policy.max_backlog() as u64 {
            self.report.suppressed += 1;
            self.count(|ct| ct.suppressed, 1);
            return None;
        }
        self.jobs.push(Job {
            attempts: 0,
            resolved: false,
        });
        self.open_jobs += 1;
        self.report.jobs += 1;
        self.count(|ct| ct.jobs, 1);
        Some(self.jobs.len() - 1)
    }

    /// Counts one issued attempt for `job_idx` (first attempt or retry).
    fn issue_attempt(&mut self, job_idx: usize, is_retry: bool) {
        self.jobs[job_idx].attempts += 1;
        self.report.attempts += 1;
        self.count(|ct| ct.attempts, 1);
        if is_retry {
            self.report.retries += 1;
            self.count(|ct| ct.retries, 1);
        }
    }

    /// Resolves `job_idx` (success, late-accept or abandon), closing it.
    fn close_job(&mut self, job_idx: usize) {
        debug_assert!(!self.jobs[job_idx].resolved, "a job resolves once");
        self.jobs[job_idx].resolved = true;
        self.open_jobs -= 1;
        if let Some(ct) = &mut self.telemetry {
            ct.record(ct.attempts_per_job, self.jobs[job_idx].attempts as f64);
        }
    }

    /// An attempt no device would admit, at `arrival_ms` in window `t_s`.
    fn reject(&mut self, job_idx: usize, arrival_ms: f64, t_s: u32) {
        self.report.attempt_rejected += 1;
        self.count(|ct| ct.attempt_rejected, 1);
        self.fail_attempt(job_idx, arrival_ms, t_s);
    }

    /// A completion from window `t_s`: on time closes the job; late is
    /// retried or grudgingly accepted per `retry_on_late`.
    fn complete(&mut self, completion: &Completion, t_s: u32) {
        let job_idx = self
            .outstanding
            .remove(&completion.id)
            .expect("every completion belongs to an outstanding attempt");
        if completion.met_deadline {
            self.report.succeeded += 1;
            self.report.attempt_completed += 1;
            self.count(|ct| ct.succeeded, 1);
            self.close_job(job_idx);
        } else {
            self.report.attempt_late += 1;
            self.count(|ct| ct.attempt_late, 1);
            if self.policy.retry_on_late {
                self.fail_attempt(job_idx, completion.finish_ms, t_s);
            } else {
                self.report.succeeded_late += 1;
                self.close_job(job_idx);
            }
        }
    }

    /// An attempt dropped from a dead device's queue at `window_end_ms`.
    fn drop_dead(&mut self, request: &Request, window_end_ms: f64, t_s: u32) {
        let job_idx = self
            .outstanding
            .remove(&request.id)
            .expect("every dropped request belongs to an outstanding attempt");
        self.report.attempt_dropped_dead += 1;
        self.count(|ct| ct.attempt_dropped_dead, 1);
        self.fail_attempt(job_idx, window_end_ms, t_s);
    }

    /// Handles a failed attempt at `fail_ms` in window `t_s`: schedules a
    /// backoff-jittered retry, or abandons the job when its attempts are
    /// exhausted. A retry due past the trace end leaves the job open — it
    /// is counted as pending, never silently dropped.
    fn fail_attempt(&mut self, job_idx: usize, fail_ms: f64, t_s: u32) {
        if self.jobs[job_idx].attempts >= self.policy.max_attempts {
            self.report.abandoned += 1;
            self.count(|ct| ct.abandoned, 1);
            self.close_job(job_idx);
            return;
        }
        let backoff = self.policy.backoff_ms(self.jobs[job_idx].attempts);
        let jitter = if self.policy.jitter_ms > 0.0 {
            self.rng.gen_range(0.0..self.policy.jitter_ms)
        } else {
            0.0
        };
        let retry_ms = fail_ms + backoff + jitter;
        // retries are quantised to windows and never land in the current
        // one (its events are already being replayed)
        let window = ((retry_ms / WINDOW_MS) as u32).max(t_s + 1);
        if window >= self.duration_s {
            return; // stays open; counted as pending at trace end
        }
        let offset = (retry_ms - window as f64 * WINDOW_MS).clamp(0.0, WINDOW_MS - 1e-6);
        self.retry_due[window as usize].push((offset, job_idx));
    }

    /// Trace end: attempts still queued/in flight, and jobs waiting on a
    /// retry that never came due, are pending — never silently dropped.
    fn finish(&mut self) {
        self.report.attempt_outstanding = self.outstanding.len() as u64;
        self.report.pending_at_end = self.open_jobs;
        self.count(|ct| ct.attempt_outstanding, self.report.attempt_outstanding);
        self.count(|ct| ct.pending_at_end, self.report.pending_at_end);
        debug_assert_eq!(
            self.jobs.iter().filter(|j| !j.resolved).count() as u64,
            self.open_jobs,
            "open-job counter tracks unresolved jobs"
        );
    }
}

impl<'m, M: Model> Fleet<'m, M> {
    /// Plays `chaos` to completion with closed-loop clients and reports
    /// both sides of the loop. The fleet must have been built over
    /// [`ChaosScenario::fleet_scenario`] — the materialised profiles are
    /// what the devices replay.
    ///
    /// # Panics
    ///
    /// Panics if the fleet's scenario is not the materialisation of
    /// `chaos`, or the composition fails validation.
    pub fn run_chaos(mut self, chaos: &ChaosScenario) -> ChaosReport {
        chaos.validate().expect("invalid chaos scenario");
        let scenario = chaos.fleet_scenario();
        assert_eq!(
            *self.scenario(),
            scenario,
            "fleet must be built from chaos.fleet_scenario()"
        );
        let duration_s = scenario.duration_s();
        let mut arrival_rng = StdRng::seed_from_u64(self.config.seed);
        let n = self.devices.len();
        let device_names: Vec<String> = scenario.devices.iter().map(|p| p.name.clone()).collect();
        let mut fleet_telemetry = FleetTelemetry::new(self.config.telemetry, &device_names);
        let mut clients = ClientLoop::new(
            &chaos.clients,
            duration_s,
            self.config.seed,
            ChaosTelemetry::new(self.config.telemetry),
        );
        // the router's per-event view of the fleet, refilled in place
        let mut snapshots = Vec::with_capacity(n);
        let mut next_id = 0u64;
        let mut arrivals_total = 0u64;
        let mut unroutable = 0u64;

        for t_s in 0..duration_s {
            let now_ms = t_s as f64 * WINDOW_MS;
            let window_end_ms = now_ms + WINDOW_MS;

            // 1. per-device battery events, death checks, level decisions
            let mut serving = vec![false; n];
            for (i, device) in self.devices.iter_mut().enumerate() {
                let profile = &scenario.devices[i];
                serving[i] = device.begin_window(
                    t_s,
                    now_ms,
                    profile.battery_cliff_at(t_s),
                    profile.charge_w_at(t_s) * WINDOW_S,
                    profile.thermal_cap_at(t_s),
                );
            }

            // 2. this window's events: fresh arrivals at the overlay-scaled
            //    rate, merged with due retries, replayed in offset order
            let rate = scenario.arrivals.rate_at(t_s) * chaos.rate_multiplier_at(t_s);
            let mut events: Vec<WindowEvent> = Scenario::draw_arrivals(rate, &mut arrival_rng)
                .into_iter()
                .map(|offset_ms| WindowEvent {
                    offset_ms,
                    retry_of: None,
                })
                .collect();
            events.extend(
                std::mem::take(&mut clients.retry_due[t_s as usize])
                    .into_iter()
                    .map(|(offset_ms, job)| WindowEvent {
                        offset_ms,
                        retry_of: Some(job),
                    }),
            );
            events.sort_by(|a, b| {
                a.offset_ms
                    .partial_cmp(&b.offset_ms)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            let mut routed = vec![0u64; n];
            let mut rejected = vec![0u64; n];
            for event in events {
                let job_idx = match event.retry_of {
                    Some(job_idx) => job_idx,
                    None => match clients.open_job() {
                        Some(job_idx) => job_idx,
                        None => continue, // suppressed: population saturated
                    },
                };
                clients.issue_attempt(job_idx, event.retry_of.is_some());
                arrivals_total += 1;

                // route down the router's preference order with failover
                let arrival_ms = now_ms + event.offset_ms;
                snapshots.clear();
                snapshots.extend(
                    self.devices
                        .iter()
                        .map(|d| self.snapshot(&d.core, arrival_ms)),
                );
                let order = self.router.order(&snapshots);
                let mut placed = None;
                for &i in &order {
                    let request = Request {
                        id: next_id,
                        arrival_ms,
                        deadline_ms: arrival_ms + self.config.deadline_budget_ms,
                    };
                    if self.devices[i].core.try_admit(request).is_ok() {
                        routed[i] += 1;
                        placed = Some(i);
                        break;
                    }
                    rejected[i] += 1;
                    if let Some(ft) = &mut fleet_telemetry {
                        ft.add(ft.failovers[i], 1);
                    }
                }
                if let Some(ft) = &mut fleet_telemetry {
                    ft.add(ft.arrivals, 1);
                    ft.add(placed.map_or(ft.unroutable, |i| ft.routed[i]), 1);
                }
                match placed {
                    Some(_) => {
                        clients.outstanding.insert(next_id, job_idx);
                    }
                    None => {
                        unroutable += 1;
                        clients.reject(job_idx, arrival_ms, t_s);
                    }
                }
                self.router.commit(placed, n);
                next_id += 1;
            }

            // 3. per-device dispatch; completions and dead-queue drops feed
            //    back into the owning jobs
            for (i, device) in self.devices.iter_mut().enumerate() {
                if serving[i] {
                    let completions = device.end_window(
                        t_s,
                        window_end_ms,
                        routed[i],
                        rejected[i],
                        scenario.arrivals.background_w(t_s) * WINDOW_S,
                    );
                    for completion in &completions {
                        clients.complete(completion, t_s);
                    }
                } else {
                    for request in &device.record_dead_window(t_s, routed[i]) {
                        clients.drop_dead(request, window_end_ms, t_s);
                    }
                }
            }
        }
        clients.finish();

        let routing = self.router.policy().label().to_string();
        let devices = self
            .devices
            .into_iter()
            .zip(scenario.devices)
            .map(|(device, profile)| device.into_report(profile.name, "adaptive".to_string()).0)
            .collect();
        ChaosReport {
            chaos: chaos.name.clone(),
            fleet: FleetReport {
                scenario: scenario.name,
                routing,
                arrivals: arrivals_total,
                unroutable,
                devices,
                telemetry: fleet_telemetry.map(|ft| ft.snapshot()),
            },
            clients: clients.report,
            client_telemetry: clients.telemetry.map(|ct| ct.snapshot()),
        }
    }
}
