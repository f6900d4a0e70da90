//! `rt3-chaos`: closed-loop clients, a compositional fault-scenario DSL
//! and a global invariant harness for the fleet.
//!
//! Every open-loop trace in [`crate::Scenario`] feeds requests on a fixed
//! schedule regardless of what the fleet does with them. Real mobile
//! traffic is *closed-loop*: clients bound their outstanding requests,
//! retry failures with exponential backoff and jitter, and abandon after
//! enough misses — which is exactly the feedback that turns one device
//! death into a retry storm. This module closes the loop:
//!
//! * [`ChaosScenario`] — a base [`crate::FleetScenario`] plus composable
//!   [`ChaosOverlay`]s (flash crowds, correlated regional charge cycles,
//!   mid-burst device death, staggered thermal waves). Named compositions
//!   ([`ChaosScenario::retry_storm`], [`ChaosScenario::flash_crowd`], …)
//!   cover the ROADMAP shapes, and [`ChaosScenario::generate`] draws a
//!   random composition from a seed for property fuzzing.
//! * [`ClientPolicy`] — the retry/backoff/abandon state machine of the
//!   simulated client population, deterministic under the fleet seed.
//! * [`Fleet::run_chaos`](crate::Fleet::run_chaos) — replays a chaos
//!   scenario with closed-loop clients and returns a [`ChaosReport`]
//!   (the usual [`crate::FleetReport`] plus a [`ClientReport`] with
//!   retry amplification and abandon rates). It is the fleet's only
//!   window loop: [`crate::Fleet::run`] calls it with
//!   [`ClientPolicy::open_loop`] clients.
//! * [`check_invariants`] — the global invariant harness: no request
//!   silently lost (attempt and job conservation, reconciled against
//!   telemetry counters), battery monotone between charge events, report
//!   aggregates consistent with per-device snapshots, retry counts
//!   bounded by policy.
//!
//! See DESIGN.md §11 for the DSL grammar and the full invariant list.

mod clients;
mod driver;
mod invariants;
mod scenario;

pub use clients::{ClientPolicy, ClientReport};
pub use driver::ChaosReport;
pub use invariants::check_invariants;
pub use scenario::{ChaosOverlay, ChaosScenario};
