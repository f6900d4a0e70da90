//! Golden regression suite for the fleet: the heterogeneous-cliff trace is
//! played under every routing policy, plus the compressed diurnal trace
//! under battery-aware routing and two battery-starved variants of the
//! cliff trace (one death; the whole fleet dying). Each [`FleetReport`]'s
//! router and per-device aggregates are pinned against checked-in expected
//! values, so a refactor of the fleet window loop, the router or the
//! failover path cannot silently change fleet serving behaviour.
//!
//! Like `golden_scenarios.rs`, the values depend only on deterministic
//! simulation (the vendored splitmix64 `StdRng` and IEEE-754 arithmetic;
//! `real_inference` is off, so no wall clock is read), so they are stable
//! across machines. If an *intentional* behaviour change moves them, re-run
//! with `GOLDEN_PRINT=1` (`GOLDEN_PRINT=1 cargo test -p rt3-runtime --test
//! golden_fleet -- --nocapture`) and update the table — in the same change
//! that explains why.

use rt3_core::{
    build_search_space, run_level1, run_level2_search, Rt3Config, SearchOutcome,
    SurrogateEvaluator, TaskProfile,
};
use rt3_pruning::PatternSpace;
use rt3_runtime::{
    Fleet, FleetConfig, FleetReport, FleetScenario, RouterConfig, RoutingPolicy, ServeReport,
};
use rt3_transformer::{MaskSet, TransformerConfig, TransformerLm};

/// Every name a pinned report may carry (scenarios, routing labels and
/// device names), so the expected table can hold `&'static str`s.
const NAMES: &[&str] = &[
    "fleet-cliff-discharge",
    "fleet-diurnal-24h",
    "battery-aware",
    "predictive",
    "round-robin",
    "sticky",
    "d0-cliff",
    "d1-low",
    "d2-charging",
    "d3-throttled",
];

fn pinned(name: &str) -> &'static str {
    NAMES
        .iter()
        .find(|known| **known == name)
        .unwrap_or_else(|| panic!("unexpected name {name}"))
}

/// The pinned aggregates of one fleet run: the router's counters and every
/// device's outcome.
#[derive(Debug, PartialEq)]
struct GoldenRun {
    scenario: &'static str,
    routing: &'static str,
    arrivals: u64,
    unroutable: u64,
    deaths: usize,
    devices: Vec<GoldenDevice>,
}

/// The pinned aggregates of one device in a fleet run. The latency
/// percentiles are bucket uppers of the streaming histogram, exactly as in
/// `golden_scenarios.rs`.
#[derive(Debug, PartialEq)]
struct GoldenDevice {
    device: &'static str,
    arrivals: u64,
    completed: u64,
    missed_deadline: u64,
    rejected: u64,
    dropped_dead_battery: u64,
    dropped_at_trace_end: u64,
    switches: u64,
    died_at_s: Option<u32>,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl GoldenRun {
    fn of(report: &FleetReport) -> Self {
        Self {
            scenario: pinned(&report.scenario),
            routing: pinned(&report.routing),
            arrivals: report.arrivals,
            unroutable: report.unroutable,
            deaths: report.deaths(),
            devices: report.devices.iter().map(GoldenDevice::of).collect(),
        }
    }
}

impl GoldenDevice {
    fn of(report: &ServeReport) -> Self {
        Self {
            device: pinned(&report.scenario),
            arrivals: report.arrivals,
            completed: report.completed,
            missed_deadline: report.missed_deadline,
            rejected: report.rejected,
            dropped_dead_battery: report.dropped_dead_battery,
            dropped_at_trace_end: report.dropped_at_trace_end,
            switches: report.switches,
            died_at_s: report.died_at_s,
            p50_ms: report.p50_ms(),
            p95_ms: report.p95_ms(),
            p99_ms: report.p99_ms(),
        }
    }
}

fn offline_artifacts() -> (
    TransformerLm,
    MaskSet,
    PatternSpace,
    SearchOutcome,
    Rt3Config,
) {
    let model = TransformerLm::new(TransformerConfig::tiny(32), 13);
    let config = Rt3Config::tiny_test();
    let mut evaluator = SurrogateEvaluator::new(TaskProfile::wikitext2());
    let backbone = run_level1(&model, &config, &mut evaluator);
    let space = build_search_space(&model, &backbone, &config);
    let outcome = run_level2_search(&model, &backbone, &space, &config, &mut evaluator);
    (model, backbone.masks, space, outcome, config)
}

/// The fixed runs of the suite, in `expected()` order; every parameter is
/// pinned on purpose — do not "tidy" them.
fn runs() -> Vec<(FleetScenario, RoutingPolicy)> {
    let cliff = FleetScenario::heterogeneous_cliff();
    vec![
        (cliff.clone(), RoutingPolicy::BatteryAware),
        (cliff.clone(), RoutingPolicy::Predictive),
        (cliff.clone(), RoutingPolicy::RoundRobin),
        (cliff, RoutingPolicy::Sticky),
        (FleetScenario::diurnal(5), RoutingPolicy::BatteryAware),
        (two_joule_cliff(), RoutingPolicy::Sticky),
        (starved(), RoutingPolicy::RoundRobin),
    ]
}

/// The cliff trace with `d0` on a 2 J battery and no cliff: it dies
/// under load, so the run pins a death and the failover around it.
fn two_joule_cliff() -> FleetScenario {
    let mut scenario = FleetScenario::heterogeneous_cliff();
    scenario.devices[0].battery_capacity_j = 2.0;
    scenario.devices[0].cliff = None;
    scenario
}

/// The cliff trace with every device on a 2 J battery and no charger:
/// the whole fleet dies, so the run pins unroutable arrivals.
fn starved() -> FleetScenario {
    let mut scenario = FleetScenario::heterogeneous_cliff();
    for device in &mut scenario.devices {
        device.battery_capacity_j = 2.0;
        device.charge_w = 0.0;
    }
    scenario
}

/// Expected aggregates, in `runs()` order, captured via `GOLDEN_PRINT=1`
/// from the fleet's separate open-loop window loop, before `Fleet::run`
/// became the open-loop case of `Fleet::run_chaos`.
fn expected() -> Vec<GoldenRun> {
    vec![
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "battery-aware",
            arrivals: 10800,
            unroutable: 0,
            deaths: 0,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 999,
                    completed: 999,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.22245718238286827,
                    p95_ms: 0.22245718238286827,
                    p99_ms: 0.22245718238286827,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 0,
                    completed: 0,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.0,
                    p95_ms: 0.0,
                    p99_ms: 0.0,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 6025,
                    completed: 6025,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 3776,
                    completed: 3776,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "predictive",
            arrivals: 10800,
            unroutable: 0,
            deaths: 0,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 2380,
                    completed: 2380,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 2470,
                    completed: 2470,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 3280,
                    completed: 3280,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 2670,
                    completed: 2670,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "round-robin",
            arrivals: 10800,
            unroutable: 0,
            deaths: 0,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 2700,
                    completed: 2700,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "sticky",
            arrivals: 10800,
            unroutable: 0,
            deaths: 0,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 2728,
                    completed: 2728,
                    missed_deadline: 0,
                    rejected: 38,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.32097733399132267,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 2736,
                    completed: 2736,
                    missed_deadline: 0,
                    rejected: 38,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 2672,
                    completed: 2672,
                    missed_deadline: 0,
                    rejected: 37,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 2664,
                    completed: 2664,
                    missed_deadline: 0,
                    rejected: 37,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-diurnal-24h",
            routing: "battery-aware",
            arrivals: 3249,
            unroutable: 0,
            deaths: 0,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 291,
                    completed: 291,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.2224571823826409,
                    p95_ms: 0.2224571823826409,
                    p99_ms: 0.2224571823826409,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 0,
                    completed: 0,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: None,
                    p50_ms: 0.0,
                    p95_ms: 0.0,
                    p99_ms: 0.0,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 540,
                    completed: 540,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.22265625,
                    p99_ms: 0.22265625,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 2418,
                    completed: 2418,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "sticky",
            arrivals: 10800,
            unroutable: 0,
            deaths: 1,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 1216,
                    completed: 1216,
                    missed_deadline: 0,
                    rejected: 17,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: Some(66),
                    p50_ms: 0.22265625,
                    p95_ms: 0.3893000691678026,
                    p99_ms: 0.3893000691678026,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 3240,
                    completed: 3240,
                    missed_deadline: 0,
                    rejected: 45,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.32097733399223216,
                    p95_ms: 0.32097733399223216,
                    p99_ms: 0.32097733399223216,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 3176,
                    completed: 3176,
                    missed_deadline: 0,
                    rejected: 44,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 0,
                    died_at_s: None,
                    p50_ms: 0.22245718238991685,
                    p95_ms: 0.22245718238991685,
                    p99_ms: 0.22245718238991685,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 3168,
                    completed: 3168,
                    missed_deadline: 0,
                    rejected: 44,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: None,
                    p50_ms: 0.22265625,
                    p95_ms: 0.38930006917507853,
                    p99_ms: 0.38930006917507853,
                },
            ],
        },
        GoldenRun {
            scenario: "fleet-cliff-discharge",
            routing: "round-robin",
            arrivals: 10800,
            unroutable: 6320,
            deaths: 4,
            devices: vec![
                GoldenDevice {
                    device: "d0-cliff",
                    arrivals: 720,
                    completed: 720,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: Some(40),
                    p50_ms: 0.22265625,
                    p95_ms: 0.32097733399132267,
                    p99_ms: 0.32097733399132267,
                },
                GoldenDevice {
                    device: "d1-low",
                    arrivals: 540,
                    completed: 540,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: Some(30),
                    p50_ms: 0.328125,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                GoldenDevice {
                    device: "d2-charging",
                    arrivals: 900,
                    completed: 900,
                    missed_deadline: 0,
                    rejected: 0,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 2,
                    died_at_s: Some(40),
                    p50_ms: 0.328125,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
                GoldenDevice {
                    device: "d3-throttled",
                    arrivals: 2320,
                    completed: 2320,
                    missed_deadline: 0,
                    rejected: 200,
                    dropped_dead_battery: 0,
                    dropped_at_trace_end: 0,
                    switches: 1,
                    died_at_s: Some(65),
                    p50_ms: 0.38930006917144055,
                    p95_ms: 0.38930006917144055,
                    p99_ms: 0.38930006917144055,
                },
            ],
        },
    ]
}

#[test]
fn fleet_runs_match_their_golden_aggregates() {
    let (model, masks, space, outcome, config) = offline_artifacts();
    let mut actual = Vec::new();
    for (scenario, policy) in runs() {
        let fleet_config = FleetConfig {
            router: RouterConfig {
                policy,
                ..RouterConfig::default()
            },
            real_inference: false,
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(
            &model,
            masks.clone(),
            &space,
            &outcome,
            &config,
            &scenario,
            fleet_config,
        );
        actual.push(GoldenRun::of(&fleet.run()));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for golden in &actual {
            println!("{golden:#?},");
        }
        return;
    }
    let expected = expected();
    assert_eq!(actual.len(), expected.len(), "one golden per run");
    for (actual, expected) in actual.iter().zip(&expected) {
        assert_eq!(
            actual, expected,
            "fleet run {} under {} drifted from its golden aggregates — if the \
             change is intentional, re-capture with GOLDEN_PRINT=1",
            expected.scenario, expected.routing
        );
    }
}
