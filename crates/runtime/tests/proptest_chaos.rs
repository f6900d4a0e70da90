//! Property-fuzz for the chaos harness: *generated* scenarios — seeded
//! compositions of flash crowds, regional charge cycles, device deaths
//! and thermal waves over randomized fleets — must satisfy every global
//! invariant in [`rt3_runtime::check_invariants`] under every routing
//! policy:
//!
//! * attempt conservation (every client attempt resolves exactly once);
//! * job conservation (jobs partition into succeeded/abandoned/aborted);
//! * fleet reconciliation (arrivals = routed + unroutable, completions +
//!   drops ≤ admissions);
//! * telemetry counter reconciliation across the merged snapshots;
//! * per-device battery monotonicity (modulo charging overlays);
//! * retry counts bounded by the client policy.
//!
//! The named scenario suite (retry-storm, flash-crowd, thermal-wave,
//! charge-cycle) is pinned deterministically on top of the random draws,
//! so CI always fuzzes at least those four plus the generated ones.

use proptest::prelude::*;
use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_runtime::{
    check_invariants, ChaosReport, ChaosScenario, ClientPolicy, Fleet, FleetScenario, RoutingPolicy,
};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};
use std::sync::OnceLock;

type Artifacts = (
    TransformerLm,
    MaskSet,
    PatternSpace,
    SearchOutcome,
    Rt3Config,
);

/// The offline pipeline is deterministic and slow relative to a fleet
/// run, so it is built once and shared across every proptest case.
fn artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
        let config = Rt3Config::tiny_test();
        let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
        let backbone = run_level1(&model, &config, &mut evaluator);
        let space = build_search_space(&model, &backbone, &config);
        let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
        (model, backbone.masks, space, outcome, config)
    })
}

fn run_chaos(policy: RoutingPolicy, chaos: &ChaosScenario, seed: u64) -> ChaosReport {
    let (model, masks, space, outcome, config) = artifacts();
    let fleet_cfg = ChaosScenario::storm_fleet_config(policy, seed);
    let scenario = chaos.fleet_scenario();
    let fleet = Fleet::new(
        model,
        masks.clone(),
        space,
        outcome,
        config,
        &scenario,
        fleet_cfg,
    );
    fleet.run_chaos(chaos)
}

fn policy_of(index: usize) -> RoutingPolicy {
    match index % 3 {
        0 => RoutingPolicy::BatteryAware,
        1 => RoutingPolicy::Predictive,
        _ => RoutingPolicy::RoundRobin,
    }
}

fn assert_invariants(chaos: &ChaosScenario, report: &ChaosReport, what: &str) {
    if let Err(violations) = check_invariants(chaos, report) {
        panic!(
            "{what} ({}) violated {} invariant(s):\n  {}",
            chaos.name,
            violations.len(),
            violations.join("\n  ")
        );
    }
}

/// The four named scenarios are always fuzzed, under every policy — the
/// deterministic floor beneath the random draws below. Open-loop replays
/// of the heterogeneous-cliff trace (what `Fleet::run` plays) ride along
/// under every routing policy: open-loop traffic is the simplest closed
/// loop, so the same invariants hold, with no retry and no suppression.
#[test]
fn named_scenarios_satisfy_every_invariant_under_every_policy() {
    for name in ["retry-storm", "flash-crowd", "thermal-wave", "charge-cycle"] {
        let chaos = ChaosScenario::by_name(name).expect("known scenario");
        for policy_index in 0..3 {
            let policy = policy_of(policy_index);
            let report = run_chaos(policy, &chaos, 17);
            assert_invariants(&chaos, &report, &format!("{name} under {policy:?}"));
            assert!(
                report.clients.jobs > 0,
                "{name} under {policy:?} issued no jobs"
            );
        }
    }
    // the cliff trace as shipped, and with every battery at 2 J and no
    // charger so the fleet dies and failed attempts are exercised
    let cliff = FleetScenario::heterogeneous_cliff();
    let mut starved = cliff.clone();
    for device in &mut starved.devices {
        device.battery_capacity_j = 2.0;
        device.charge_w = 0.0;
    }
    for (base, starved) in [(cliff, false), (starved, true)] {
        let open_loop =
            ChaosScenario::new(&base.name, base.clone()).with_clients(ClientPolicy::open_loop());
        for policy in [
            RoutingPolicy::BatteryAware,
            RoutingPolicy::Predictive,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Sticky,
        ] {
            let report = run_chaos(policy, &open_loop, 17);
            let what = format!(
                "open-loop {} (starved: {starved}) under {policy:?}",
                base.name
            );
            assert_invariants(&open_loop, &report, &what);
            let clients = &report.clients;
            assert!(clients.jobs > 0, "{what} issued no jobs");
            assert_eq!(clients.retries, 0, "{what} retried");
            assert_eq!(clients.suppressed, 0, "{what} suppressed an arrival");
            assert_eq!(
                clients.jobs, clients.attempts,
                "{what}: one attempt per job"
            );
            assert_eq!(
                clients.attempts, report.fleet.arrivals,
                "{what}: every attempt reaches the router"
            );
            let failed =
                clients.attempt_rejected + clients.attempt_dropped_dead + clients.attempt_late;
            assert_eq!(
                clients.abandoned, failed,
                "{what}: every failed attempt is abandoned"
            );
            if starved {
                assert!(clients.abandoned > 0, "{what}: no attempt failed");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A generated scenario — random overlays over a random fleet — keeps
    /// every global invariant, for any seed and routing policy.
    #[test]
    fn generated_scenarios_satisfy_every_invariant(
        scenario_seed in 0u64..100_000,
        run_seed in 0u64..100_000,
        policy_index in 0usize..3,
    ) {
        let chaos = ChaosScenario::generate(scenario_seed);
        let report = run_chaos(policy_of(policy_index), &chaos, run_seed);
        assert_invariants(&chaos, &report, "generated scenario");
        prop_assert!(report.clients.jobs > 0, "a generated scenario always offers load");
    }

    /// The same seed pair replays to the identical report (the property
    /// the whole harness leans on for reproducing violations).
    #[test]
    fn chaos_replay_is_exact(
        scenario_seed in 0u64..100_000,
        run_seed in 0u64..100_000,
    ) {
        let chaos = ChaosScenario::generate(scenario_seed);
        let mut a = run_chaos(RoutingPolicy::Predictive, &chaos, run_seed);
        let mut b = run_chaos(RoutingPolicy::Predictive, &chaos, run_seed);
        // wall-clock series (bank build timings) are real measurements
        // and legitimately differ between replays; everything else must
        // be bit-exact
        a.scrub_wall_clock();
        b.scrub_wall_clock();
        prop_assert_eq!(a, b);
    }
}
