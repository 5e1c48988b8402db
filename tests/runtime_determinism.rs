//! Sharded-runtime determinism suite.
//!
//! Four pins, all against the shared fixture:
//!
//! 1. A **single-shard** runtime (stepped *and* threaded) reproduces the
//!    recorded single-engine goldens bit-for-bit — the runtime is a strict
//!    generalization of `Simulation`.
//! 2. **Threaded == stepped**, bit-for-bit, at 2/4/8 shards (contiguous and
//!    hashed placement) for all six schedulers — parallelism may only buy
//!    wall-clock time, never change an answer.
//! 3. **Elastic runs keep both guarantees**: with epoch rebalancing enabled
//!    the threaded replay matches the stepped plan bit-for-bit at 2/4/8
//!    shards, a never-triggering policy is behaviour-neutral against the
//!    static map, and a single elastic shard reproduces the goldens.
//! 4. **Absolute multi-shard goldens**: static and elastic runs at 2/4/8
//!    shards reproduce recorded global fingerprints and JSONL telemetry
//!    hashes in both modes — pins 2 and 3 only compare the executors with
//!    each other, so a change to both would otherwise go unnoticed.
//! 5. The **sweep driver** returns identical results at any thread count.

mod common;

use common::{fingerprint, fixture, goldens, scheduler_factories, Fnv};
use liferaft::prelude::*;
use liferaft::runtime::{alpha_sweep, shard_sweep};

#[test]
fn single_shard_runtime_reproduces_the_recorded_goldens() {
    let (catalog, timed) = fixture();
    let rt = ShardedRuntime::new(&catalog, RuntimeConfig::single(SimConfig::paper()));
    for ((label, mk), (_, golden)) in scheduler_factories().into_iter().zip(goldens()) {
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| mk(), mode);
            assert_eq!(
                fingerprint(&report.global).as_str(),
                golden,
                "{label} via {mode:?}: single-shard runtime diverged from the simulation golden"
            );
            assert_eq!(report.cross_shard_queries, 0);
        }
    }
}

#[test]
fn threaded_is_bit_identical_to_stepped_across_shard_counts() {
    let (catalog, timed) = fixture();
    for n_shards in [2u32, 4, 8] {
        for assignment in [
            ShardAssignment::Contiguous,
            ShardAssignment::Hashed { seed: 0xC1D2 },
        ] {
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
            config.assignment = assignment;
            let rt = ShardedRuntime::new(&catalog, config);
            for (label, mk) in scheduler_factories() {
                let stepped = rt.run(&timed, &mut |_| mk(), ExecMode::Stepped);
                let threaded = rt.run(&timed, &mut |_| mk(), ExecMode::Threaded);
                let ctx = format!("{label} @ {n_shards} shards ({assignment:?})");
                assert_eq!(
                    fingerprint(&stepped.global),
                    fingerprint(&threaded.global),
                    "{ctx}: global reports diverged"
                );
                assert_eq!(
                    stepped.shards.len(),
                    n_shards as usize,
                    "{ctx}: shard count"
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
                // The sharded pool conserves work: fragment-level servicing
                // sums to the single-engine total.
                assert_eq!(
                    stepped.global.serviced_entries, 59_935,
                    "{ctx}: serviced entries"
                );
                assert_eq!(stepped.global.outcomes.len(), timed.len(), "{ctx}");
            }
        }
    }
}

#[test]
fn elastic_rebalancing_keeps_the_determinism_contract() {
    let (catalog, timed) = fixture();
    // 0.5 q/s over 120 queries ≈ 240 virtual seconds; a 30 s epoch gives
    // ~8 rebalance opportunities.
    let mut rebalance = RebalanceConfig::every(SimDuration::from_secs(30));
    rebalance.min_imbalance = 1.05;
    for n_shards in [2u32, 4, 8] {
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.rebalance = rebalance;
        let rt = ShardedRuntime::new(&catalog, config);
        for (label, mk) in scheduler_factories() {
            let stepped = rt.run(&timed, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{label} @ {n_shards} elastic shards");
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
            }
            assert_eq!(
                stepped.rebalance, threaded.rebalance,
                "{ctx}: decision logs diverged"
            );
            // Migration moves work between shards but never loses or
            // duplicates it.
            assert_eq!(
                stepped.global.serviced_entries, 59_935,
                "{ctx}: serviced entries"
            );
            assert_eq!(stepped.global.outcomes.len(), timed.len(), "{ctx}");
        }
    }

    // The contiguous map concentrates this trace enough that the default
    // trigger actually fires somewhere across the sweep above; pin that the
    // suite exercises real migrations rather than vacuous no-op epochs.
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.rebalance = rebalance;
    let rt = ShardedRuntime::new(&catalog, config.clone());
    let greedy = scheduler_factories()[2].1;
    let run = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
    let log = run.rebalance.expect("elastic run records a log");
    assert!(
        log.total_moves() > 0,
        "fixture must trigger at least one migration at 4 shards"
    );

    // A never-triggering elastic policy is behaviour-neutral: bit-identical
    // to the static shard map, epoch records and all-zero move log included.
    let mut never = config.clone();
    never.rebalance.min_imbalance = 1e12;
    let rt_never = ShardedRuntime::new(&catalog, never);
    let mut static_cfg = config;
    static_cfg.rebalance = RebalanceConfig::disabled();
    let rt_static = ShardedRuntime::new(&catalog, static_cfg);
    for mode in [ExecMode::Stepped, ExecMode::Threaded] {
        let neutral = rt_never.run(&timed, &mut |_| greedy(), mode);
        let static_run = rt_static.run(&timed, &mut |_| greedy(), mode);
        assert_eq!(
            fingerprint(&neutral.global),
            fingerprint(&static_run.global),
            "{mode:?}: never-triggering elastic diverged from the static map"
        );
        assert_eq!(
            neutral.rebalance.as_ref().map(RebalanceLog::total_moves),
            Some(0)
        );
        assert!(static_run.rebalance.is_none());
    }

    // One elastic shard has no peer to shed load to: the recorded
    // single-engine goldens still hold verbatim.
    let mut single = RuntimeConfig::single(SimConfig::paper());
    single.rebalance = rebalance;
    let rt_single = ShardedRuntime::new(&catalog, single);
    for ((label, mk), (_, golden)) in scheduler_factories().into_iter().zip(goldens()) {
        let report = rt_single.run(&timed, &mut |_| mk(), ExecMode::Stepped);
        assert_eq!(
            fingerprint(&report.global).as_str(),
            golden,
            "{label}: single elastic shard diverged from the simulation golden"
        );
    }
}

/// `(scheduler, shards, elastic, global fingerprint, JSONL FNV-1a)` rows,
/// recorded on the contiguous map with the JSONL recorder on; elastic rows
/// rebalance every 30 s at `min_imbalance = 1.05`.
const SHARDED_GOLDENS: [(&str, u32, bool, &str, u64); 12] = [
    ("greedy", 2, false, "b=378 sb=349 ib=29 se=59935 cse=27975 reads=160 probes=85 hits=189 miss=160 ev=120 mk=406c3feb78897e99 mw=40da508000000000 oc=2190ac27c6e47c93", 0xab5c0b4ab29bbebb),
    ("greedy", 4, false, "b=384 sb=360 ib=24 se=59935 cse=28479 reads=150 probes=69 hits=210 miss=150 ev=70 mk=406c3feb78897e99 mw=40c1392b851eb852 oc=9f0103ba50bd84b5", 0x0318766c8033d22b),
    ("greedy", 8, false, "b=386 sb=365 ib=21 se=59935 cse=29521 reads=146 probes=63 hits=219 miss=146 ev=8 mk=406c3feb78897e99 mw=40b8ae5eb851eb85 oc=23bc3900f7ebf723", 0x82521daa9114e328),
    ("greedy", 2, true, "b=378 sb=349 ib=29 se=59935 cse=27077 reads=160 probes=85 hits=189 miss=160 ev=120 mk=406c3feb78897e99 mw=40c917def9db22d1 oc=f8e86f617fbfe800", 0x91f16fb21f6d84cd),
    ("greedy", 4, true, "b=384 sb=360 ib=24 se=59935 cse=28573 reads=149 probes=69 hits=211 miss=149 ev=69 mk=406c3feb78897e99 mw=40c1392b851eb852 oc=25d6532e2bd6cd19", 0x2d131af28d9c1f6b),
    ("greedy", 8, true, "b=386 sb=365 ib=21 se=59935 cse=29521 reads=146 probes=63 hits=219 miss=146 ev=9 mk=406c3feb78897e99 mw=40b8ae5eb851eb85 oc=89791a05af6c8c91", 0xafa207ed5c06454a),
    ("alpha05", 2, false, "b=371 sb=342 ib=29 se=59935 cse=26725 reads=161 probes=85 hits=181 miss=161 ev=121 mk=406c3feb78897e99 mw=40d0d6a147ae147b oc=d16825636f2f49b6", 0xe6e052698a0d68be),
    ("alpha05", 4, false, "b=377 sb=353 ib=24 se=59935 cse=28367 reads=150 probes=69 hits=203 miss=150 ev=70 mk=406c3feb78897e99 mw=40bd082e147ae148 oc=fb9697e4b16d3bb3", 0xc42dbe1a7f2d1928),
    ("alpha05", 8, false, "b=386 sb=365 ib=21 se=59935 cse=29521 reads=146 probes=63 hits=219 miss=146 ev=8 mk=406c3feb78897e99 mw=40bcefbd70a3d70a oc=2aadf90ae0a80949", 0x7a45bf7ce42ab7e3),
    ("alpha05", 2, true, "b=368 sb=339 ib=29 se=59935 cse=26965 reads=160 probes=85 hits=179 miss=160 ev=120 mk=406c3feb78897e99 mw=40c598f5c28f5c29 oc=6288558c381a8fa1", 0x2cb215c163bce5bd),
    ("alpha05", 4, true, "b=377 sb=353 ib=24 se=59935 cse=28461 reads=149 probes=69 hits=204 miss=149 ev=69 mk=406c3feb78897e99 mw=40bcf95c28f5c28f oc=30f1bcfed0448297", 0x7200c2013f560432),
    ("alpha05", 8, true, "b=386 sb=365 ib=21 se=59935 cse=29521 reads=146 probes=63 hits=219 miss=146 ev=9 mk=406c3feb78897e99 mw=40bcefbd70a3d70a oc=7dd8b8d21c60d43b", 0xec523144470e3be7),
];

#[test]
fn sharded_runs_reproduce_the_recorded_goldens() {
    let (catalog, timed) = fixture();
    let factories = scheduler_factories();
    for (label, n_shards, elastic, golden, jsonl_golden) in SHARDED_GOLDENS {
        let mk = factories
            .iter()
            .find(|(l, _)| *l == label)
            .expect("a pinned scheduler")
            .1;
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.telemetry = TelemetryConfig::jsonl();
        if elastic {
            config.rebalance = RebalanceConfig::every(SimDuration::from_secs(30));
            config.rebalance.min_imbalance = 1.05;
        }
        let rt = ShardedRuntime::new(&catalog, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| mk(), mode);
            let mut h = Fnv::new();
            h.write(report.telemetry.as_ref().unwrap().to_jsonl().as_bytes());
            let got = fingerprint(&report.global);
            let ctx = format!("{label} @ {n_shards} shards (elastic: {elastic}) via {mode:?}");
            assert_eq!(got, golden, "{ctx}: global fingerprint");
            assert_eq!(h.0, jsonl_golden, "{ctx}: JSONL telemetry hash");
        }
    }
}

#[test]
fn sweep_driver_results_are_independent_of_thread_count() {
    let (catalog, timed) = fixture();
    let params = MetricParams::paper();
    let alphas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let serial = alpha_sweep(&catalog, &timed, SimConfig::paper(), params, &alphas, 1);
    let fanned = alpha_sweep(&catalog, &timed, SimConfig::paper(), params, &alphas, 4);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            fingerprint(&a.report),
            fingerprint(&b.report),
            "α sweep point {} changed with thread count",
            a.label
        );
    }

    let counts = [1u32, 2, 4];
    let base = RuntimeConfig::single(SimConfig::paper());
    let mk = || -> Box<dyn Scheduler + Send> { Box::new(LifeRaftScheduler::greedy(params)) };
    let serial = shard_sweep(
        &catalog,
        &timed,
        base.clone(),
        &counts,
        ExecMode::Stepped,
        1,
        |_| mk(),
    );
    let fanned = shard_sweep(
        &catalog,
        &timed,
        base,
        &counts,
        ExecMode::Threaded,
        3,
        |_| mk(),
    );
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            fingerprint(&a.report),
            fingerprint(&b.report),
            "shard sweep point {} changed with thread count / exec mode",
            a.label
        );
    }
    // The 1-shard sweep point is the simulation golden once more.
    assert_eq!(fingerprint(&serial[0].report), common::GOLDEN_GREEDY);
}
