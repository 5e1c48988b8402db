//! The four workloads and their set-up.
//!
//! Every input is derived from the `--seed` argument: the catalog's object
//! positions, the queries, and their arrival instants. Arrivals are open
//! loop (scheduled regardless of completions) and every response time is
//! counted from the scheduled arrival.

use liferaft_catalog::{Catalog, VirtualCatalog};
use liferaft_core::{AgingMode, LifeRaftScheduler, MetricParams};
use liferaft_query::QueryPreProcessor;
use liferaft_runtime::{
    parallel_map, FailoverConfig, FaultPlan, FrontDoorConfig, RebalanceConfig, RuntimeConfig,
    TelemetryConfig,
};
use liferaft_sim::{ShardOutage, SimConfig};
use liferaft_storage::{SimDuration, SimTime};
use liferaft_workload::arrivals::{flash_crowd_arrivals, poisson_arrivals};
use liferaft_workload::{TimedTrace, Trace, TraceGenerator, WorkloadConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single engine, deep queues, cost-only joins.
    SaturatedArchive,
    /// Single engine executing every crossmatch join.
    CrossmatchJoins,
    /// Four shards behind a bounded front door, flash-crowd arrivals.
    FlashCrowdDoor,
    /// Four shards, one crashes; failover plus elastic rebalancing.
    CrashFailoverElastic,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SaturatedArchive,
        Workload::CrossmatchJoins,
        Workload::FlashCrowdDoor,
        Workload::CrashFailoverElastic,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturatedArchive => "saturated_archive",
            Workload::CrossmatchJoins => "crossmatch_joins",
            Workload::FlashCrowdDoor => "flash_crowd_door",
            Workload::CrashFailoverElastic => "crash_failover_elastic",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Catalog geometry and trace size of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// HTM level of the partition.
    pub level: u8,
    /// Buckets in the catalog.
    pub n_buckets: u32,
    /// Objects per bucket.
    pub objects_per_bucket: u64,
    /// Queries in the trace.
    pub n_queries: usize,
}

/// Bytes per bucket: the paper's 40 MB buckets.
const BUCKET_BYTES: u64 = 40 * 1024 * 1024;

/// The shard count of both runtime workloads.
pub const SHARDS: u32 = 4;

/// The single-engine workloads replay at this Poisson rate (queries per
/// virtual second): far above service rate, so queues stay deep.
const SINGLE_RATE_QPS: f64 = 2.0;

/// The size of `w` at full scale.
pub fn size(w: Workload) -> Size {
    match w {
        Workload::CrossmatchJoins => Size {
            level: 10,
            n_buckets: 512,
            objects_per_bucket: 500,
            n_queries: 4_000,
        },
        Workload::SaturatedArchive => Size {
            level: 12,
            n_buckets: 2_048,
            objects_per_bucket: 1_000,
            n_queries: 10_000,
        },
        Workload::FlashCrowdDoor | Workload::CrashFailoverElastic => Size {
            level: 12,
            n_buckets: 2_048,
            objects_per_bucket: 1_000,
            n_queries: 6_000,
        },
    }
}

/// How a workload is served.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Engine {
    /// One `Simulation` engine.
    Single(SimConfig),
    /// A sharded runtime, controllers included.
    Runtime(RuntimeConfig),
}

/// A built workload: one arrival draw over the workload's query set.
pub struct Fixture {
    /// The catalog.
    pub catalog: VirtualCatalog,
    /// The queries at this draw's arrivals.
    pub trace: TimedTrace,
    /// How the trace is served.
    pub engine: Engine,
}

/// The single-engine scheduler: LifeRaft with normalized aging at α = 0.5.
pub fn single_scheduler() -> LifeRaftScheduler {
    LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, 0.5)
}

/// The per-shard scheduler of the runtime workloads: greedy LifeRaft.
pub fn shard_scheduler() -> LifeRaftScheduler {
    LifeRaftScheduler::greedy(MetricParams::paper())
}

/// Seed of every workload's query set. The queries are the archive's
/// fixed workload, as the paper replays one fixed trace; `--seed` draws
/// the catalog's rows and the arrival instants. Seeded queries would let
/// a dozen hotspot positions decide a run's virtual response times, and
/// their seed-to-seed spread would exceed any useful bound.
const QUERY_SEED: u64 = 2009;

/// Builds the catalog, the query set, arrival draw `replica` and the
/// controller bounds of `w` at `sz`. This is the work `setup_s` times.
pub fn setup_at(w: Workload, sz: Size, seed: u64, replica: u64) -> Fixture {
    let catalog = VirtualCatalog::new(
        sz.level,
        sz.n_buckets,
        sz.objects_per_bucket,
        BUCKET_BYTES / sz.objects_per_bucket,
        seed,
    );
    let n = sz.n_queries;
    // Distinct seeds get disjoint families of arrival draws.
    let draw = seed.wrapping_mul(1 << 8).wrapping_add(replica);
    match w {
        Workload::SaturatedArchive | Workload::CrossmatchJoins => {
            let arrivals = poisson_arrivals(SINGLE_RATE_QPS, n, draw ^ 0xBE7C);
            let sim = if w == Workload::CrossmatchJoins {
                SimConfig::with_real_joins()
            } else {
                SimConfig::paper()
            };
            Fixture {
                trace: query_set(sz, QUERY_SEED ^ 0x51).into_timed(arrivals),
                catalog,
                engine: Engine::Single(sim),
            }
        }
        Workload::FlashCrowdDoor => {
            // The FlashCrowd scenario's shape: 0.5 q/s, then 20 q/s for 60%
            // of the trace from t = 30 s.
            let len = SimDuration::from_secs_f64(0.6 * n as f64 / 20.0);
            let at = SimDuration::from_secs(30);
            let arrivals = flash_crowd_arrivals(0.5, 20.0, at, len, n, draw ^ 0xF1A5);
            let queries = query_set(sz, QUERY_SEED ^ 0x5C);
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), SHARDS);
            config.front_door = door_bounds(&catalog, &queries);
            config.telemetry = TelemetryConfig::ring(1 << 16);
            Fixture {
                trace: queries.into_timed(arrivals),
                catalog,
                engine: Engine::Runtime(config),
            }
        }
        Workload::CrashFailoverElastic => {
            // The ShardCrash scenario's shape: 1 q/s, then 16 q/s for half
            // the trace from t = 10 s; shard 0 dies at t = 12 s and stays
            // down until 30 s after the last arrival.
            let len = SimDuration::from_secs_f64(0.5 * n as f64 / 16.0);
            let at = SimDuration::from_secs(10);
            let arrivals = flash_crowd_arrivals(1.0, 16.0, at, len, n, draw ^ 0xDEAD);
            let last = arrivals.last().copied().unwrap_or(SimTime::ZERO);
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), SHARDS);
            config.faults = FaultPlan {
                stalls: Vec::new(),
                outages: vec![ShardOutage {
                    shard: 0,
                    down_at: SimTime::ZERO + SimDuration::from_secs(12),
                    up_at: last + SimDuration::from_secs(30),
                }],
                links: Vec::new(),
            };
            config.failover = FailoverConfig::recovery();
            config.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
            config.rebalance.min_imbalance = 1.4;
            config.rebalance.max_moves_per_epoch = 8;
            Fixture {
                trace: query_set(sz, QUERY_SEED ^ 0x5C).into_timed(arrivals),
                catalog,
                engine: Engine::Runtime(config),
            }
        }
    }
}

/// A `paper_like` trace of the independently seeded block family,
/// generated in blocks over the machine's cores. The block family is
/// chunking-invariant, so the trace does not depend on the thread count.
fn query_set(sz: Size, seed: u64) -> Trace {
    let generator = TraceGenerator::new(WorkloadConfig::paper_like(
        sz.level,
        sz.n_buckets,
        sz.n_queries,
        seed,
    ));
    let layout = generator.layout();
    let chunk = 250usize;
    let ranges: Vec<(usize, usize)> = (0..sz.n_queries.div_ceil(chunk))
        .map(|c| (c * chunk, ((c + 1) * chunk).min(sz.n_queries)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blocks = parallel_map(&ranges, threads, |_, &(start, end)| {
        generator.generate_block(&layout, start, end)
    });
    Trace::new(sz.level, blocks.into_iter().flatten().collect())
}

/// Front-door bounds from the trace's own size distribution: classes split
/// at the 30th and 70th size percentiles, the in-flight bound at four times
/// the median, batch shedding past twelve times the median waiting.
fn door_bounds(catalog: &VirtualCatalog, queries: &Trace) -> FrontDoorConfig {
    let pre = QueryPreProcessor::new(catalog.partition());
    let mut sizes: Vec<u64> = queries
        .queries()
        .iter()
        .map(|q| pre.workload_size(q))
        .collect();
    sizes.sort_unstable();
    let pct = |p: usize| sizes[(sizes.len() - 1) * p / 100];
    let mut door = FrontDoorConfig::bounded((4 * pct(50)).max(1));
    door.interactive_max_assignments = pct(INTERACTIVE_PERCENTILE);
    door.batch_min_assignments = pct(70).max(door.interactive_max_assignments + 1);
    door.max_waiting_assignments = Some(12 * pct(50));
    door
}

/// The size percentile at or below which a query counts as interactive on
/// every workload (the front door's interactive threshold).
const INTERACTIVE_PERCENTILE: usize = 30;

/// The interactive-class size threshold of a set of query sizes.
pub fn interactive_threshold(mut sizes: Vec<u64>) -> u64 {
    sizes.sort_unstable();
    sizes[(sizes.len() - 1) * INTERACTIVE_PERCENTILE / 100]
}

/// A fixture of `w` small enough for a debug-build test.
#[cfg(test)]
pub fn small(w: Workload) -> Fixture {
    let size = Size {
        level: 10,
        n_buckets: 64,
        objects_per_bucket: 100,
        n_queries: 40,
    };
    setup_at(w, size, 7, 0)
}

/// A small single-engine fixture with its engine configuration.
#[cfg(test)]
pub fn small_single(w: Workload) -> (Fixture, SimConfig) {
    let f = small(w);
    let Engine::Single(sim) = f.engine else {
        panic!("{} is not a single-engine workload", w.name())
    };
    (f, sim)
}
