//! The fault/overload scenario suite, end to end.
//!
//! Every scenario in `liferaft_sim::scenario` runs through the sharded
//! runtime's front door with all six pinned schedulers, in both executors:
//!
//! 1. **Determinism under overload**: threaded == stepped, bit-for-bit —
//!    global report, per-shard reports, admission stats, and the full
//!    front-door report (verdicts, samples, per-class summaries). Injected
//!    shard stalls are part of the contract.
//! 2. **Accounting conservation**: completed + rejected == submitted, for
//!    the run and per class; nothing is lost or double-counted.
//! 3. **The flash-crowd acceptance bar**: with the controller on,
//!    interactive-class p90 response is measurably below the
//!    controller-off run on the identical trace, while batch-class work is
//!    shed into retries (and the neutral, unbounded door reproduces the
//!    controller-off behaviour bit-for-bit).

mod common;

use common::{fingerprint, scheduler_factories, Fnv};
use liferaft::prelude::*;

/// The catalog every scenario replays against (matches
/// [`ScenarioScale::small`]: level 10, 128 buckets).
fn scenario_catalog() -> VirtualCatalog {
    let scale = ScenarioScale::small();
    VirtualCatalog::new(scale.level, scale.n_buckets, 200, 4096, 7)
}

/// The suite's front-door tuning: tight enough that overload scenarios
/// actually queue and shed, loose enough that nominal load sails through.
fn door() -> FrontDoorConfig {
    let mut d = FrontDoorConfig::bounded(2_000);
    d.interactive_max_assignments = 200;
    d.batch_min_assignments = 600;
    d.max_waiting_assignments = Some(6_000);
    d
}

/// A 4-shard pool with the scenario's recommended fault injection converted
/// into the runtime's fault plan. Link-fault scenarios run behind the
/// hedged transport controller; outage scenarios behind the failover
/// controller; everything else behind the front door (the three paths are
/// mutually exclusive by config validation).
fn pool_config(fx: &ScenarioFixture) -> RuntimeConfig {
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.faults = FaultPlan {
        stalls: fx.stalls.clone(),
        outages: fx.outages.clone(),
        links: fx.links.clone(),
    };
    if !fx.links.is_empty() {
        config.transport = TransportConfig::hedged();
        // Anchor the hedge threshold below the straggler-inflated p90:
        // with a bimodal response mix a `2 × p90` trigger only clips the
        // extreme tail, while `1.5 × p75` re-issues stalled fragments
        // early enough to pull the p90 itself down without duplicating
        // so much work that the healthy shards clog.
        config.transport.hedge.quantile = 0.75;
        config.transport.hedge.latency_multiplier = 1.5;
        config.transport.hedge.min_samples = 5;
    } else if fx.outages.is_empty() {
        config.front_door = door();
    } else {
        config.failover = FailoverConfig::recovery();
    }
    config
}

#[test]
fn every_scenario_is_deterministic_across_executors_and_schedulers() {
    let catalog = scenario_catalog();
    let scale = ScenarioScale::small();
    for kind in ScenarioKind::ALL {
        let fx = build_scenario(kind, &scale);
        let rt = ShardedRuntime::new(&catalog, pool_config(&fx));
        for (label, mk) in scheduler_factories() {
            let stepped = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{} / {label}", kind.name());
            assert_eq!(
                fingerprint(&stepped.global),
                fingerprint(&threaded.global),
                "{ctx}: global reports diverged"
            );
            for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
                assert_eq!(
                    fingerprint(&a.report),
                    fingerprint(&b.report),
                    "{ctx}: shard {} diverged",
                    a.shard
                );
                assert_eq!(a.admission, b.admission, "{ctx}: admission stats");
            }
            assert_eq!(
                stepped.front_door, threaded.front_door,
                "{ctx}: front-door reports diverged"
            );
            assert_eq!(
                stepped.failover, threaded.failover,
                "{ctx}: failover reports diverged"
            );
            assert_eq!(
                stepped.transport, threaded.transport,
                "{ctx}: transport reports diverged"
            );

            // Conservation: every submitted query is exactly-once terminal,
            // whichever controller fronted the run.
            if let Some(tp) = stepped.transport.as_ref() {
                assert_eq!(
                    stepped.global.outcomes.len() + tp.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for c in &tp.per_class {
                    assert_eq!(
                        c.completed + c.rejected,
                        c.submitted,
                        "{ctx}: {:?} class conservation",
                        c.class
                    );
                }
                assert_eq!(
                    tp.hedge_wins + tp.hedge_losses,
                    tp.log.hedges.len() as u64,
                    "{ctx}: every hedge race must settle exactly once"
                );
            } else if let Some(fd) = stepped.front_door.as_ref() {
                assert_eq!(
                    stepped.global.outcomes.len() + fd.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for class in QueryClass::ALL {
                    let c = fd.class(class);
                    assert_eq!(
                        c.submitted,
                        c.admitted + c.rejected,
                        "{ctx}: {} class accounting",
                        class.label()
                    );
                }
            } else {
                let fo = stepped.failover.as_ref().expect("failover is on");
                assert_eq!(
                    stepped.global.outcomes.len() + fo.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for c in &fo.per_class {
                    assert_eq!(
                        c.completed + c.rejected,
                        c.submitted,
                        "{ctx}: {:?} class conservation",
                        c.class
                    );
                }
            }
        }
    }
}

/// `(scenario, scheduler, global fingerprint, JSONL FNV-1a, FNV-1a of the
/// front-door report's `Debug` text)` rows for every scenario that runs
/// behind the front door: 4 shards, the suite's [`door`] tuning, the
/// scenario's stalls, and the JSONL recorder on.
const DOOR_GOLDENS: [(&str, &str, &str, u64, u64); 10] = [
    ("flash_crowd", "NoShare", "b=274 sb=274 ib=0 se=21003 cse=0 reads=274 probes=0 hits=0 miss=0 ev=0 mk=4065c64e18266773 mw=40fd117d851eb852 oc=3d1b446c8352f174", 0x377de8361791ab1d, 0x1f0dc5fd8d59f515),
    ("flash_crowd", "greedy", "b=279 sb=263 ib=16 se=49964 cse=32875 reads=78 probes=39 hits=185 miss=78 ev=8 mk=4053844aa53fc009 mw=40d3d1be353f7cee oc=6ecc207f4aa05ff3", 0xac62c3e25392b7a3, 0x3c556ca23c1d96bb),
    ("diurnal_cycle", "NoShare", "b=274 sb=274 ib=0 se=21003 cse=0 reads=274 probes=0 hits=0 miss=0 ev=0 mk=4066a995bbbe8790 mw=4101287700000000 oc=6a9f0e9550c68461", 0xbfac79c36e0d0e35, 0x037f19893e054e26),
    ("diurnal_cycle", "greedy", "b=293 sb=275 ib=18 se=49964 cse=34431 reads=77 probes=43 hits=198 miss=77 ev=8 mk=404caa4cf8d716d3 mw=40d4b54b43958106 oc=c6c18551d8db128e", 0xd872b214f606a964, 0x7bda8b085ede6a76),
    ("hotspot_drift", "NoShare", "b=375 sb=375 ib=0 se=19669 cse=0 reads=375 probes=0 hits=0 miss=0 ev=0 mk=406665170931012a mw=41030c0b16872b02 oc=9db5dce51a0b4a56", 0x4fa06848f9c59131, 0x63139fd516599048),
    ("hotspot_drift", "greedy", "b=446 sb=330 ib=116 se=50685 cse=39657 reads=118 probes=291 hits=212 miss=118 ev=38 mk=4050f662ed352221 mw=40efe1ab4bc6a7f0 oc=bc066fb989cabe71", 0xdace888a94e03ec1, 0x245950b2e8063355),
    ("interactive_batch_mix", "NoShare", "b=179 sb=179 ib=0 se=10340 cse=0 reads=179 probes=0 hits=0 miss=0 ev=0 mk=405b239f59ccfaf0 mw=40f4bd2543958106 oc=c3f22a7487f3a30a", 0xe808d396ceeaa330, 0x01c89dd7a8ed71c7),
    ("interactive_batch_mix", "greedy", "b=216 sb=185 ib=31 se=44304 cse=33378 reads=54 probes=80 hits=131 miss=54 ev=1 mk=4040dbe79ee02a78 mw=40cd4c0000000000 oc=f541d4a1882918e6", 0x0342015b52b38a8a, 0xc5b90f524ed621cb),
    ("shard_stall", "NoShare", "b=268 sb=268 ib=0 se=20234 cse=0 reads=268 probes=0 hits=0 miss=0 ev=0 mk=406ccfb5bf6a0dbb mw=41058dc0020c49ba oc=033face953045805", 0x657f530efff9c15e, 0x60f26fc659945a06),
    ("shard_stall", "greedy", "b=288 sb=269 ib=19 se=49964 cse=33863 reads=80 probes=43 hits=189 miss=80 ev=10 mk=4056786f0cfe1544 mw=40edad1a978d4fdf oc=9dcd1ffbe549a25b", 0xf6630c68aaa5a193, 0xeb685e0a927a21cf),
];

#[test]
fn front_door_runs_reproduce_the_recorded_goldens() {
    let catalog = scenario_catalog();
    let scale = ScenarioScale::small();
    let factories = scheduler_factories();
    let door_kinds: Vec<ScenarioKind> = ScenarioKind::ALL
        .into_iter()
        .filter(|&k| pool_config(&build_scenario(k, &scale)).front_door.enabled)
        .collect();
    for kind in &door_kinds {
        assert!(
            DOOR_GOLDENS.iter().any(|row| row.0 == kind.name()),
            "{}: a front-door scenario without goldens",
            kind.name()
        );
    }
    for (scenario, label, golden, jsonl_golden, door_golden) in DOOR_GOLDENS {
        let kind = *door_kinds
            .iter()
            .find(|k| k.name() == scenario)
            .expect("a front-door scenario");
        let mk = factories
            .iter()
            .find(|(l, _)| *l == label)
            .expect("a pinned scheduler")
            .1;
        let fx = build_scenario(kind, &scale);
        let mut config = pool_config(&fx);
        config.telemetry = TelemetryConfig::jsonl();
        let rt = ShardedRuntime::new(&catalog, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&fx.trace, &mut |_| mk(), mode);
            let mut jsonl = Fnv::new();
            jsonl.write(report.telemetry.as_ref().unwrap().to_jsonl().as_bytes());
            let mut fd = Fnv::new();
            fd.write(format!("{:?}", report.front_door).as_bytes());
            let got = fingerprint(&report.global);
            let ctx = format!("{scenario} / {label} via {mode:?}");
            assert_eq!(got, golden, "{ctx}: global fingerprint");
            assert_eq!(jsonl.0, jsonl_golden, "{ctx}: JSONL telemetry hash");
            assert_eq!(fd.0, door_golden, "{ctx}: front-door report hash");
        }
    }
}

#[test]
fn flash_crowd_controller_protects_interactive_latency() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::FlashCrowd, &ScenarioScale::small());
    let greedy = scheduler_factories()[2].1;

    // Controller off — but through a *neutral* (unbounded) door, so the
    // run still records per-class latency for the comparison below.
    let mut off_cfg = pool_config(&fx);
    off_cfg.front_door = FrontDoorConfig::bounded(u64::MAX);
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // The neutral door really is neutral: bit-identical to disabled.
    let mut disabled_cfg = pool_config(&fx);
    disabled_cfg.front_door = FrontDoorConfig::disabled();
    let disabled_rt = ShardedRuntime::new(&catalog, disabled_cfg);
    for mode in [ExecMode::Stepped, ExecMode::Threaded] {
        let neutral = off_rt.run(&fx.trace, &mut |_| greedy(), mode);
        let plain = disabled_rt.run(&fx.trace, &mut |_| greedy(), mode);
        assert_eq!(
            fingerprint(&neutral.global),
            fingerprint(&plain.global),
            "{mode:?}: the unbounded door must be behaviour-neutral"
        );
        assert!(plain.front_door.is_none());
    }

    // Controller on.
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    let fd_on = on.front_door.as_ref().expect("controller on");
    let fd_off = off.front_door.as_ref().expect("neutral door records");
    let int_on = fd_on.class(QueryClass::Interactive);
    let int_off = fd_off.class(QueryClass::Interactive);
    assert!(
        int_on.submitted > 0,
        "fixture must contain interactive-class queries"
    );
    assert!(
        fd_on.log.total_shed_events() > 0,
        "the flash crowd must shed batch-class work"
    );
    let p90_on = int_on.response.percentile(90.0);
    let p90_off = int_off.response.percentile(90.0);
    assert!(
        p90_on < p90_off,
        "controller must cut interactive p90 under the flash crowd \
         (on: {p90_on:.2}s, off: {p90_off:.2}s)"
    );
    // Shedding is bounded and accounted: every retry either landed or
    // ended in a recorded rejection.
    let batch_on = fd_on.class(QueryClass::Batch);
    assert_eq!(batch_on.submitted, batch_on.admitted + batch_on.rejected);
}

/// p90 response over the interactive class (default front-door thresholds —
/// the same classification the failover report conserves by).
fn interactive_p90_s(report: &RunReport) -> f64 {
    let classes = FrontDoorConfig::disabled();
    let samples: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| classes.classify(o.assignments) == QueryClass::Interactive)
        .map(|o| o.response_time().as_secs_f64())
        .collect();
    assert!(!samples.is_empty(), "no interactive-class completions");
    Summary::from_samples(samples).percentile(90.0)
}

#[test]
fn shard_crash_failover_restores_service_where_off_strands_it() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::ShardCrash, &ScenarioScale::small());
    assert!(
        !fx.outages.is_empty(),
        "crash fixture must declare an outage"
    );
    let greedy = scheduler_factories()[2].1;

    // No-fault baseline: the identical trace with the crash edited out.
    let mut base_cfg = pool_config(&fx);
    base_cfg.faults = FaultPlan::default();
    base_cfg.failover = FailoverConfig::disabled();
    let base_rt = ShardedRuntime::new(&catalog, base_cfg);
    let base = base_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Failover on (pool_config turns on recovery for crash fixtures).
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Failover off: the outage still freezes the shard, nothing recovers —
    // the dead shard's backlog strands until it rejoins.
    let mut off_cfg = pool_config(&fx);
    off_cfg.failover = FailoverConfig::disabled();
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Exactly-once under the crash: every query reaches one terminal
    // outcome, and the crash actually moved work.
    let fo = on.failover.as_ref().expect("failover report");
    assert_eq!(
        on.global.outcomes.len() + fo.rejected.len(),
        fx.trace.len(),
        "failover-on run lost track of a query"
    );
    assert!(
        fo.log.evacuated_entries() > 0,
        "the crash must strand a backlog worth evacuating"
    );
    assert!(
        fo.recovery_lag.is_some(),
        "evacuations must yield a recovery-lag measurement"
    );

    // The acceptance bar: recovery holds interactive p90 within 3× of the
    // crash-free baseline, while the unrecovered run blows through it.
    let p90_base = interactive_p90_s(&base.global);
    let p90_on = interactive_p90_s(&on.global);
    let p90_off = interactive_p90_s(&off.global);
    assert!(
        p90_on <= 3.0 * p90_base,
        "failover must contain the crash (on: {p90_on:.2}s, baseline: {p90_base:.2}s)"
    );
    assert!(
        p90_off > p90_on,
        "no recovery must hurt (off: {p90_off:.2}s, on: {p90_on:.2}s)"
    );
    assert!(
        p90_off > 2.0 * p90_base,
        "the unrecovered crash must grossly delay the stranded work \
         (off: {p90_off:.2}s, baseline: {p90_base:.2}s)"
    );
}

#[test]
fn lossy_link_hedging_beats_retransmit_only_delivery() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::LossyLink, &ScenarioScale::small());
    assert!(
        !fx.links.is_empty(),
        "lossy fixture must declare link faults"
    );
    assert!(
        !fx.stalls.is_empty(),
        "lossy fixture must declare a straggler"
    );
    let greedy = scheduler_factories()[2].1;

    // Hedge off: retransmit/dedup delivery only — stragglers ride out the
    // stalled shard.
    let mut off_cfg = pool_config(&fx);
    off_cfg.transport.hedge.enabled = false;
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Hedge on (pool_config enables p90 hedging for link fixtures).
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // The lossy links really bit, both runs stayed conservative.
    for (label, report) in [("off", &off), ("on", &on)] {
        let tp = report.transport.as_ref().expect("transport report");
        assert!(
            !tp.log.drops.is_empty() && !tp.log.retransmits.is_empty(),
            "hedge-{label}: the lossy windows must force retransmits"
        );
        assert!(
            !tp.log.suppressed.is_empty(),
            "hedge-{label}: ack loss must force duplicate suppression"
        );
        assert_eq!(
            report.global.outcomes.len() + tp.rejected.len(),
            fx.trace.len(),
            "hedge-{label}: completed + rejected must equal submitted"
        );
    }
    let tp_on = on.transport.as_ref().unwrap();
    assert!(
        !tp_on.log.hedges.is_empty(),
        "the stalled shard's stragglers must hedge"
    );
    assert!(
        tp_on.hedge_wins > 0,
        "at least one hedge copy must beat its straggling original"
    );
    assert!(
        off.transport.as_ref().unwrap().log.hedges.is_empty(),
        "hedge-off must plan no hedges"
    );

    // The acceptance bar: hedging strictly cuts interactive p90 on the
    // identical lossy trace.
    let p90_on = interactive_p90_s(&on.global);
    let p90_off = interactive_p90_s(&off.global);
    assert!(
        p90_on < p90_off,
        "hedging must cut interactive p90 under lossy links \
         (on: {p90_on:.2}s, off: {p90_off:.2}s)"
    );
}
