//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload, with the output checks of both.

use std::collections::{BTreeMap, HashMap};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use liferaft_catalog::Catalog;
use liferaft_join::zones::ZoneMap;
use liferaft_metrics::Summary;
use liferaft_query::{Predicate, QueryId, QueryPreProcessor, QueueEntry};
use liferaft_runtime::{
    parallel_map, route, ExecMode, FrontDoorConfig, QueryClass, RuntimeReport, ShardedRuntime,
    TelemetryReport,
};
use liferaft_sim::{RunReport, Simulation};
use liferaft_storage::BucketId;
use liferaft_workload::TimedTrace;

use crate::drive;
use crate::metrics::{
    fingerprint, median, medians, peak_rss_mb, percentile_sorted, Metrics, Outcome, END_TO_END,
    PER_LAYER,
};
use crate::spans::{layers, sorted_durations, to_jsonl, Span, Tracer};
use crate::workload::{
    interactive_threshold, setup_at, shard_scheduler, single_scheduler, size, Engine, Fixture,
    Workload,
};
use crate::wrap::{TimedCatalog, TimedScheduler};

/// Arrival draws ("replicas") per untraced run. Each is set up and
/// measured in a child process of its own, one after another: on a shared
/// virtual machine a process's memory placement alone moved replay wall
/// times by 20%, and averaging over processes cancels part of that.
pub const REPLICAS: u64 = 3;

/// Fewest timed replays per replica (or traced rounds per run), however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

/// Zone height of the reference crossmatch, in radians (about 3.4 arcmin,
/// some twenty error radii).
const REFERENCE_ZONE_HEIGHT: f64 = 1e-3;

/// The first word of the line a replica's child process reports its
/// `key=value` results on.
const RESULT_TAG: &str = "replica-result";

/// The first word of a line on which a replica's child process reports
/// one sample set: the set's name, then its values.
const SAMPLES_TAG: &str = "replica-samples";

/// Keys every replica's result line carries.
const RESULT_KEYS: [&str; 8] = [
    "correct",
    "attempted",
    "failed",
    "setup_s",
    "peak_rss_mb",
    "queries_per_s",
    "sim_qps",
    "completed_frac",
];

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, in seconds.
    pub seconds: f64,
}

impl Plan {
    fn setup(&self, replica: u64) -> Fixture {
        setup_at(self.workload, size(self.workload), self.seed, replica)
    }
}

/// Accumulates the output checks of a run.
#[derive(Debug, Default)]
struct Checks {
    failures: usize,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            eprintln!("check failed: {}", what());
            self.failures += 1;
        }
        ok
    }

    fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Calls `step` until `seconds` have passed and at least [`MIN_REPS`]
/// calls were made.
fn repeat_for(seconds: f64, mut step: impl FnMut()) {
    let deadline = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || t0.elapsed() < deadline {
        step();
        n += 1;
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// One replay's report, from whichever entry point served it.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // a handful alive at a time
enum Report {
    Single(RunReport),
    Runtime(RuntimeReport),
}

/// Replays the fixture through the program's own entry point:
/// `Simulation::run`, or `ShardedRuntime::run` in `mode`.
fn replay(fx: &Fixture, mode: ExecMode) -> Report {
    match &fx.engine {
        Engine::Single(sim) => Report::Single(run_single(fx, *sim)),
        Engine::Runtime(config) => {
            let rt = ShardedRuntime::new(&fx.catalog, config.clone());
            Report::Runtime(run_runtime(&rt, &fx.trace, mode))
        }
    }
}

fn run_single(fx: &Fixture, sim: liferaft_sim::SimConfig) -> RunReport {
    Simulation::new(&fx.catalog, sim).run(&fx.trace, &mut single_scheduler())
}

fn run_runtime(
    rt: &ShardedRuntime<'_, impl Catalog + Sync>,
    trace: &TimedTrace,
    mode: ExecMode,
) -> RuntimeReport {
    rt.run(trace, &mut |_| Box::new(shard_scheduler()), mode)
}

/// The untraced run: [`REPLICAS`] child processes, one per arrival draw,
/// run one after another with `plan.seconds / REPLICAS` of measuring each
/// (see [`replica`]). `setup_s` and `peak_rss_mb` are medians over the
/// children, `queries_per_s`, `sim_qps` and `completed_frac` are means,
/// and the response-time percentiles pool every child's completions.
///
/// # Errors
/// Fails if a child cannot be started, fails, or reports no result.
pub fn untraced(plan: &Plan) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let seconds = plan.seconds / REPLICAS as f64;
    let mut results = Vec::new();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in 0..REPLICAS {
        let out = Command::new(&exe)
            .args(["--workload", plan.workload.name()])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", "0", "--replica", &r.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run replica {r}: {e}"))?;
        if !out.status.success() {
            return Err(format!("replica {r} failed ({})", out.status));
        }
        let mut result = None;
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if let Some(fields) = line.strip_prefix(RESULT_TAG) {
                result = Some(parse_result(fields)?);
            } else if let Some(set) = line.strip_prefix(SAMPLES_TAG) {
                let mut words = set.split_whitespace();
                let name = words.next().ok_or("unnamed sample set")?;
                let pool = samples.entry(name.to_string()).or_default();
                for w in words {
                    pool.push(w.parse().map_err(|_| format!("malformed sample {w:?}"))?);
                }
            } else {
                println!("replica {r}: {line}");
            }
        }
        results.push(result.ok_or_else(|| format!("replica {r} reported no result"))?);
    }
    let field = |name: &str| -> Vec<f64> { results.iter().map(|r| r[name]).collect() };
    let mean = |name: &str| field(name).iter().sum::<f64>() / results.len() as f64;
    let mut pooled = |name: &str| Summary::from_samples(samples.remove(name).unwrap_or_default());
    let response = pooled("response");
    let interactive = pooled("interactive");
    let (p99, ip99) = (response.percentile(99.0), interactive.percentile(99.0));
    let above = |s: &Summary, p: f64| s.sorted().iter().filter(|&&x| x > p).count();
    println!(
        "pooled over {REPLICAS} arrival draws: sim_p99_s from {} completions ({} above it), interactive_p99_s from {} interactive completions ({} above it)",
        response.count(),
        above(&response, p99),
        interactive.count(),
        above(&interactive, ip99),
    );
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", median(&mut field("setup_s")));
    m.set("queries_per_s", mean("queries_per_s"));
    m.set("peak_rss_mb", median(&mut field("peak_rss_mb")));
    m.set("sim_qps", mean("sim_qps"));
    m.set("sim_p50_s", response.percentile(50.0));
    m.set("sim_p99_s", p99);
    m.set("interactive_p99_s", ip99);
    m.set("completed_frac", mean("completed_frac"));
    assert!(m.complete(), "an end-to-end metric was not measured");
    Ok(Outcome {
        correct: field("correct").iter().all(|&c| c == 1.0),
        attempted: field("attempted").iter().sum::<f64>() as u64,
        failed: field("failed").iter().sum::<f64>() as u64,
        metrics: m,
    })
}

/// Parses the `key=value` fields of a replica's result line.
fn parse_result(fields: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for field in fields.split_whitespace() {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed result field {field:?}"))?;
        let v: f64 = v
            .parse()
            .map_err(|_| format!("malformed result value {field:?}"))?;
        out.insert(k.to_string(), v);
    }
    match RESULT_KEYS.iter().find(|k| !out.contains_key(**k)) {
        Some(k) => Err(format!("result line lacks {k}")),
        None => Ok(out),
    }
}

/// One replica, in a child process: set-up timed once, one untimed
/// warm-up replay (which also yields the virtual-time metrics), then timed
/// replays through the program's own entry point (`Simulation::run` or
/// `ShardedRuntime::run`, stepped) for `plan.seconds`. Returns the lines
/// the parent parses: the replica's response-time samples and its results.
pub fn replica(plan: &Plan, r: u64) -> String {
    let (fx, setup_s) = time(|| plan.setup(r));
    let mut checks = Checks::default();
    let first = replay(&fx, ExecMode::Stepped);
    let expected = fingerprint(&first);
    let (mut values, samples) = virtual_metrics(plan, &fx, &first, &mut checks);
    let matches = match &first {
        Report::Single(r) => r.total_matches,
        Report::Runtime(r) => r.global.total_matches,
    };
    drop(first);

    let mut walls = Vec::new();
    let mut failed = 0u64;
    repeat_for(plan.seconds, || {
        let (report, s) = time(|| replay(&fx, ExecMode::Stepped));
        walls.push(s);
        failed += u64::from(!checks.expect(fingerprint(&report) == expected, || {
            "a replay's report differs from the first replay's".into()
        }));
    });
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    if plan.workload == Workload::CrossmatchJoins {
        let reference = reference_matches(&fx.catalog, &fx.trace);
        checks.expect(matches == reference, || {
            format!("join.matches = {matches}, reference crossmatch found {reference}")
        });
    }
    let wall = median(&mut walls);
    println!(
        "{} timed replays of {} queries: wall min {:.4} s, median {wall:.4} s, max {:.4} s",
        walls.len(),
        fx.trace.len(),
        walls[0],
        walls[walls.len() - 1],
    );
    values.extend([
        ("correct", f64::from(u8::from(checks.passed()))),
        ("attempted", walls.len() as f64),
        ("failed", failed as f64),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss),
        ("queries_per_s", fx.trace.len() as f64 / wall),
    ]);
    let mut out = String::new();
    for (name, set) in samples {
        let values: Vec<String> = set.iter().map(f64::to_string).collect();
        out += &format!("{SAMPLES_TAG} {name} {}\n", values.join(" "));
    }
    let fields: Vec<String> = values.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out + &format!("{RESULT_TAG} {}", fields.join(" "))
}

/// The virtual-time metrics of one replay, after checking its terminal
/// outcomes: every query ends exactly once, completed or rejected, and per
/// class completed + rejected == submitted as the program reports it.
/// Returns the replay's throughput and completed share, and its response
/// times, all and interactive class, for the parent to pool.
fn virtual_metrics(
    plan: &Plan,
    fx: &Fixture,
    report: &Report,
    checks: &mut Checks,
) -> (Vec<(&'static str, f64)>, Samples) {
    let t = Terminal::of(fx, report);
    let n = fx.trace.len();
    let index_of: HashMap<QueryId, usize> = fx
        .trace
        .entries()
        .iter()
        .enumerate()
        .map(|(i, (_, q))| (q.id, i))
        .collect();
    let mut seen = vec![false; n];
    let mut once = true;
    let mut sizes = Vec::with_capacity(n);
    for o in &t.global.outcomes {
        once &= !std::mem::replace(&mut seen[index_of[&o.query]], true);
        sizes.push(o.assignments);
    }
    for &(i, a) in &t.rejected {
        once &= !std::mem::replace(&mut seen[i], true);
        sizes.push(a);
    }
    checks.expect(once && seen.iter().all(|&s| s), || {
        format!(
            "{}: {} completed + {} rejected do not cover {n} submitted queries exactly once",
            plan.workload.name(),
            t.global.outcomes.len(),
            t.rejected.len()
        )
    });
    if let Some((reported, classes)) = &t.reported {
        let mut counted = [(0u64, 0u64, 0u64); 3];
        for a in t.global.outcomes.iter().map(|o| o.assignments) {
            let c = &mut counted[classes.classify(a).rank()];
            c.0 += 1;
            c.1 += 1;
        }
        for &(_, a) in &t.rejected {
            let c = &mut counted[classes.classify(a).rank()];
            c.0 += 1;
            c.2 += 1;
        }
        for class in QueryClass::ALL {
            let (sub, done, rej) = reported[class.rank()];
            let ok = done + rej == sub && counted[class.rank()] == (sub, done, rej);
            checks.expect(ok, || {
                format!(
                    "{} class {}: reported (submitted, completed, rejected) = {:?}, counted {:?}",
                    plan.workload.name(),
                    class.label(),
                    (sub, done, rej),
                    counted[class.rank()]
                )
            });
        }
    }

    let interactive = match t.door_interactive {
        Some(s) => s.sorted().to_vec(),
        None => {
            let cut = interactive_threshold(sizes);
            t.global
                .outcomes
                .iter()
                .filter(|o| o.assignments <= cut)
                .map(|o| o.response_time().as_secs_f64())
                .collect()
        }
    };
    let values = vec![
        ("sim_qps", n as f64 / t.global.makespan_s),
        ("completed_frac", t.global.outcomes.len() as f64 / n as f64),
    ];
    let response = t.global.response.sorted().to_vec();
    (
        values,
        [("response", response), ("interactive", interactive)],
    )
}

/// Named sample sets a replica reports for pooling.
type Samples = [(&'static str, Vec<f64>); 2];

/// Per-class (submitted, completed, rejected) counts, by class rank.
type ClassCounts = [(u64, u64, u64); 3];

/// A replay's terminal outcomes, whichever entry point produced it.
struct Terminal<'r> {
    global: &'r RunReport,
    /// Rejected queries as (trace index, assignments).
    rejected: Vec<(usize, u64)>,
    /// Per-class (submitted, completed, rejected) as the program reports
    /// them, with the classifier it used.
    reported: Option<(ClassCounts, FrontDoorConfig)>,
    /// The front door's own interactive-class response summary.
    door_interactive: Option<&'r Summary>,
}

impl<'r> Terminal<'r> {
    fn of(fx: &Fixture, report: &'r Report) -> Self {
        let r = match report {
            Report::Single(r) => {
                return Terminal {
                    global: r,
                    rejected: Vec::new(),
                    reported: None,
                    door_interactive: None,
                }
            }
            Report::Runtime(r) => r,
        };
        let mut t = Terminal {
            global: &r.global,
            rejected: Vec::new(),
            reported: None,
            door_interactive: None,
        };
        if let (Some(fd), Engine::Runtime(config)) = (&r.front_door, &fx.engine) {
            t.rejected = fd
                .rejected
                .iter()
                .map(|q| (q.index, q.assignments))
                .collect();
            let per = QueryClass::ALL.map(|class| {
                let c = fd.class(class);
                (c.submitted, c.response.count() as u64, c.rejected)
            });
            t.reported = Some((per, config.front_door));
            t.door_interactive = Some(&fd.class(QueryClass::Interactive).response);
        }
        if let Some(fo) = &r.failover {
            t.rejected = fo
                .rejected
                .iter()
                .map(|q| (q.index, q.assignments))
                .collect();
            let per = fo.per_class.map(|c| (c.submitted, c.completed, c.rejected));
            t.reported = Some((per, FrontDoorConfig::disabled()));
        }
        t
    }
}

/// Every match the trace's queries have in the catalog, computed outside
/// any schedule: each bucket is read once and all of its entries are
/// matched in one pass by the Zones kernel, which shares no code with the
/// engine's sweep and indexed kernels. The total does not depend on how
/// the engine batched the entries.
pub fn reference_matches(catalog: &(impl Catalog + Sync), trace: &TimedTrace) -> u64 {
    let partition = catalog.partition();
    let pre = QueryPreProcessor::new(partition);
    let mut per_bucket: Vec<Vec<QueueEntry>> = vec![Vec::new(); partition.num_buckets()];
    let mut predicates: HashMap<QueryId, Predicate> = HashMap::new();
    for (at, q) in trace.entries() {
        predicates.insert(q.id, q.predicate);
        for item in pre.preprocess(q) {
            for &oi in &item.object_indices {
                let obj = &q.objects[oi as usize];
                per_bucket[item.bucket.index()].push(QueueEntry {
                    query: q.id,
                    object_index: oi,
                    pos: obj.pos,
                    radius: obj.radius,
                    bbox: obj.bounding_range(),
                    enqueued_at: *at,
                });
            }
        }
    }
    let buckets: Vec<usize> = (0..per_bucket.len())
        .filter(|&b| !per_bucket[b].is_empty())
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts = parallel_map(&buckets, threads, |_, &b| {
        let objects = catalog.bucket_objects(BucketId(b as u32));
        let zones = ZoneMap::build(&objects, REFERENCE_ZONE_HEIGHT);
        zones
            .crossmatch(&objects, &per_bucket[b])
            .pairs
            .iter()
            .filter(|p| predicates[&p.query].accepts_mag(objects[p.catalog_index as usize].mag))
            .count() as u64
    });
    counts.into_iter().sum()
}

/// The traced run over arrival draw 0: rounds of one untraced replay and one
/// traced replay (plus, on the runtime workloads, a threaded run, a
/// standalone covering pass, a standalone routing pass and a telemetry
/// build) until `plan.seconds` have passed. Per-layer metrics are medians
/// over rounds.
pub fn traced(plan: &Plan) -> Outcome {
    let fx = plan.setup(0);
    let tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut rounds = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut threaded_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    match &fx.engine {
        Engine::Single(sim) => {
            let reference = run_single(&fx, *sim);
            let expected = fingerprint(&reference);
            if plan.workload == Workload::CrossmatchJoins {
                let want = reference_matches(&fx.catalog, &fx.trace);
                let got = reference.total_matches;
                checks.expect(got == want, || {
                    format!("join.matches = {got}, reference crossmatch found {want}")
                });
            }
            repeat_for(plan.seconds, || {
                let (_, s) = time(|| run_single(&fx, *sim));
                untraced_s.push(s);
                let run = tracer.begin_run();
                let catalog = TimedCatalog::new(&fx.catalog, tracer.clone());
                let mut scheduler = TimedScheduler::new(single_scheduler(), tracer.clone());
                let (replay, s) =
                    time(|| drive::replay(&catalog, *sim, &fx.trace, &mut scheduler, &tracer));
                traced_s.push(s);
                attempted += 1;
                failed +=
                    u64::from(!checks.expect(fingerprint(&replay.report) == expected, || {
                        "the traced replay's report differs from Simulation::run's".into()
                    }));
                rounds.push(single_layers(&tracer, run, &replay));
            });
        }
        Engine::Runtime(config) => {
            let rt = ShardedRuntime::new(&fx.catalog, config.clone());
            let expected = fingerprint(&run_runtime(&rt, &fx.trace, ExecMode::Stepped));
            repeat_for(plan.seconds, || {
                let (_, s) = time(|| run_runtime(&rt, &fx.trace, ExecMode::Stepped));
                untraced_s.push(s);

                let run = tracer.begin_run();
                let root = tracer.enter("runtime");
                let (report, s) = time(|| {
                    rt.run(
                        &fx.trace,
                        &mut |_| Box::new(TimedScheduler::new(shard_scheduler(), tracer.clone())),
                        ExecMode::Stepped,
                    )
                });
                tracer.exit(root, 0);
                traced_s.push(s);
                attempted += 1;
                failed += u64::from(!checks.expect(fingerprint(&report) == expected, || {
                    "the traced runtime report differs from the untraced one".into()
                }));

                let (threaded, s) = time(|| run_runtime(&rt, &fx.trace, ExecMode::Threaded));
                threaded_s.push(s);
                attempted += 1;
                failed += u64::from(!checks.expect(fingerprint(&threaded) == expected, || {
                    "the threaded runtime report differs from the stepped one".into()
                }));
                drop(threaded);

                let mut m = runtime_layers(&tracer, run, &report);
                standalone_layers(&mut m, &tracer, &rt, &fx, &report);
                m.set(
                    "runtime.stepped_wall_s",
                    *untraced_s.last().expect("just pushed"),
                );
                m.set("runtime.threaded_wall_s", s);
                rounds.push(m);
            });
        }
    }
    let mut m = medians(&rounds);
    let untraced_wall = median(&mut untraced_s);
    let traced_wall = median(&mut traced_s);
    m.set("trace.untraced_wall_s", untraced_wall);
    m.set("trace.traced_wall_s", traced_wall);
    m.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    m.set("trace.rounds", traced_s.len() as f64);
    if !threaded_s.is_empty() {
        let threaded = median(&mut threaded_s);
        m.set("runtime.threaded_over_stepped", threaded / untraced_wall);
        println!(
            "{}: stepped {untraced_wall:.3} s, threaded {threaded:.3} s ({} shards on {} cores): threaded/stepped = {:.3}",
            plan.workload.name(),
            crate::workload::SHARDS,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            threaded / untraced_wall,
        );
    }
    let spans = tracer.spans();
    m.set("trace.spans", spans.len() as f64);
    write_spans(plan, &spans);
    print_layer_shares(plan, &m);
    Outcome {
        correct: checks.passed(),
        attempted,
        failed,
        metrics: m,
    }
}

/// Per-layer metrics of one traced single-engine replay.
fn single_layers(tracer: &Tracer, run: u32, replay: &drive::Replay) -> Metrics {
    let spans = tracer.spans();
    let l = layers(&spans, run);
    let get = |name: &str| l.get(name).copied().unwrap_or_default();
    let r = &replay.report;
    let mut m = Metrics::new(&PER_LAYER);
    let cover = get("cover");
    m.set("cover.busy_s", cover.self_s());
    m.set("cover.queries", cover.calls as f64);
    m.set("cover.work_items", cover.count as f64);
    m.set(
        "cover.us_per_query",
        cover.self_s() * 1e6 / cover.calls.max(1) as f64,
    );
    let enqueue = get("enqueue");
    m.set("enqueue.busy_s", enqueue.self_s());
    m.set("enqueue.entries", enqueue.count as f64);
    m.set(
        "enqueue.peak_queued_entries",
        replay.peak_queued_entries as f64,
    );
    decide_metrics(&mut m, &spans, run, r);
    let batch = get("batch");
    m.set("batch.calls", batch.calls as f64);
    m.set("batch.self_s", batch.self_s());
    let catalog = get("catalog");
    m.set("catalog.reads", catalog.calls as f64);
    m.set("catalog.busy_s", catalog.total_s());
    m.set("catalog.rows", catalog.count as f64);
    m.set("report.busy_s", get("report").total_s());
    report_metrics(&mut m, r);
    let root = get("replay");
    m.set(
        "trace.unattributed_frac",
        root.self_ns as f64 / root.total_ns as f64,
    );
    m
}

/// Per-layer metrics of one traced runtime run: the wrapper schedulers'
/// picks are the only spans inside it.
fn runtime_layers(tracer: &Tracer, run: u32, report: &RuntimeReport) -> Metrics {
    let spans = tracer.spans();
    let l = layers(&spans, run);
    let root = l.get("runtime").copied().unwrap_or_default();
    let mut m = Metrics::new(&PER_LAYER);
    decide_metrics(&mut m, &spans, run, &report.global);
    report_metrics(&mut m, &report.global);
    m.set("batch.calls", report.global.batches as f64);
    m.set("runtime.busy_s", root.total_s());
    m.set(
        "runtime.shard_picks",
        l.get("decide").map_or(0, |d| d.calls) as f64,
    );
    m.set(
        "trace.unattributed_frac",
        root.self_ns as f64 / root.total_ns as f64,
    );
    if let Some(fd) = &report.front_door {
        m.set("admission.shed_events", fd.log.total_shed_events() as f64);
        m.set(
            "admission.deferred",
            fd.per_class.iter().map(|c| c.deferred).sum::<u64>() as f64,
        );
        m.set("admission.rejected", fd.rejected.len() as f64);
        m.set(
            "admission.interactive_ttfb_p99_s",
            fd.class(QueryClass::Interactive).ttfb.percentile(99.0),
        );
    }
    if let Some(fo) = &report.failover {
        m.set(
            "failover.evacuated_entries",
            fo.log.evacuated_entries() as f64,
        );
        m.set("failover.redeliveries", fo.log.redeliveries.len() as f64);
        m.set("failover.rejected", fo.total_rejected() as f64);
        m.set("failover.recovery_lag_s", fo.recovery_lag_s());
    }
    if let Some(rb) = &report.rebalance {
        m.set("rebalance.moves", rb.total_moves() as f64);
        m.set("rebalance.moved_entries", rb.moved_entries() as f64);
    }
    m
}

/// The layers a runtime run does not expose to wrappers, replayed on their
/// own over the same trace: covering every query, routing the trace over
/// the runtime's shard map, and folding the run's telemetry events.
fn standalone_layers(
    m: &mut Metrics,
    tracer: &Tracer,
    rt: &ShardedRuntime<'_, impl Catalog + Sync>,
    fx: &Fixture,
    report: &RuntimeReport,
) {
    let run = tracer.begin_run();
    let pre = QueryPreProcessor::new(fx.catalog.partition());
    for (_, q) in fx.trace.entries() {
        let span = tracer.enter("cover");
        let items = std::hint::black_box(pre.preprocess(q));
        tracer.exit(span, items.len() as u64);
    }
    let span = tracer.enter("route");
    let routing = route(fx.catalog.partition(), rt.shard_map(), &fx.trace);
    tracer.exit(span, routing.total_fragments() as u64);
    if let Some(tm) = &report.telemetry {
        let events = tm.events.clone();
        let span = tracer.enter("telemetry_build");
        std::hint::black_box(TelemetryReport::build(events, tm.n_shards, tm.window));
        tracer.exit(span, 0);
        m.set("telemetry.events", tm.events.len() as f64);
        m.set(
            "telemetry.dropped",
            report.shards.iter().map(|s| s.events_dropped).sum::<u64>() as f64,
        );
    }
    let l = layers(&tracer.spans(), run);
    let get = |name: &str| l.get(name).copied().unwrap_or_default();
    let cover = get("cover");
    m.set("cover.busy_s", cover.total_s());
    m.set("cover.queries", cover.calls as f64);
    m.set("cover.work_items", cover.count as f64);
    m.set(
        "cover.us_per_query",
        cover.total_s() * 1e6 / cover.calls.max(1) as f64,
    );
    let route_s = get("route").total_s();
    m.set("route.busy_s", route_s);
    m.set("route.fragments", routing.total_fragments() as f64);
    m.set(
        "route.cross_shard_queries",
        routing.cross_shard_queries as f64,
    );
    m.set("telemetry.build_s", get("telemetry_build").total_s());
    let run_s = m.get("runtime.busy_s").unwrap_or(0.0);
    let picks_s = m.get("decide.busy_s").unwrap_or(0.0);
    m.set("runtime.controller_s", run_s - route_s - picks_s);
}

/// The `decide.*` metrics from a run's `decide` spans and its report.
fn decide_metrics(m: &mut Metrics, spans: &[Span], run: u32, r: &RunReport) {
    let l = layers(spans, run);
    let decide = l.get("decide").copied().unwrap_or_default();
    let d = sorted_durations(spans, run, "decide");
    m.set("decide.picks", decide.calls as f64);
    m.set("decide.busy_s", decide.total_s());
    m.set("decide.pick_ns_p50", percentile_sorted(&d, 50.0) as f64);
    m.set("decide.pick_ns_p99", percentile_sorted(&d, 99.0) as f64);
    m.set(
        "decide.candidates_mean",
        decide.count as f64 / decide.calls.max(1) as f64,
    );
    m.set("decide.frontier_picks", r.frontier_picks as f64);
    m.set("decide.fallback_picks", r.fallback_picks as f64);
    let picks = (r.frontier_picks + r.fallback_picks).max(1);
    m.set(
        "decide.fallback_ratio",
        r.fallback_picks as f64 / picks as f64,
    );
    m.set("decide.max_wait_s", r.max_wait_ms / 1e3);
}

/// The batch, cache, I/O and join counters a report carries.
fn report_metrics(m: &mut Metrics, r: &RunReport) {
    m.set("batch.entries_per_batch", r.mean_batch_size());
    m.set("batch.scan_batches", r.scan_batches as f64);
    m.set("batch.indexed_batches", r.indexed_batches as f64);
    m.set("cache.hit_ratio", r.cache.hit_rate());
    m.set("cache.served_ratio", r.cache_service_fraction());
    m.set("io.bucket_reads", r.io.bucket_reads as f64);
    m.set("join.matches", r.total_matches as f64);
    m.set(
        "join.match_ratio",
        r.total_matches as f64 / r.serviced_entries.max(1) as f64,
    );
}

/// Prints each timed layer's share of the traced wall time. On the
/// runtime workloads covering is part of routing and is printed apart.
fn print_layer_shares(plan: &Plan, m: &Metrics) {
    let wall = m.get("trace.traced_wall_s").unwrap_or(0.0);
    let runtime = m.get("runtime.busy_s").is_some_and(|v| v > 0.0);
    let layers: &[&str] = if runtime {
        &[
            "route.busy_s",
            "runtime.controller_s",
            "decide.busy_s",
            "telemetry.build_s",
        ]
    } else {
        &[
            "cover.busy_s",
            "enqueue.busy_s",
            "decide.busy_s",
            "batch.self_s",
            "catalog.busy_s",
            "report.busy_s",
        ]
    };
    let shares: Vec<String> = layers
        .iter()
        .filter_map(|&n| {
            let v = m.get(n)?;
            (v != 0.0).then(|| format!("{n} {v:.3} s ({:.1}%)", 100.0 * v / wall))
        })
        .collect();
    let cover = if runtime {
        format!(
            "; covering alone {:.3} s",
            m.get("cover.busy_s").unwrap_or(0.0)
        )
    } else {
        String::new()
    };
    println!(
        "{} traced wall {wall:.3} s: {}{cover}",
        plan.workload.name(),
        shares.join(", ")
    );
}

/// Writes the run's spans as JSON Lines under the benchmark's `out`
/// directory. A write failure is reported but does not fail the run.
fn write_spans(plan: &Plan, spans: &[Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}.jsonl", plan.workload.name());
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_jsonl(spans)));
    match written {
        Ok(()) => println!("spans: {} written to {path}", spans.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
