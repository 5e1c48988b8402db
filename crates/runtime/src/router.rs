//! The front-end router: queries → per-shard work fragments.
//!
//! Arriving queries are pre-processed once (the paper's Query Pre-Processor)
//! and their per-bucket work items are split by the [`ShardMap`] into
//! per-shard **fragments**. A fragment is the unit a shard admits, tracks,
//! and completes; the cross-shard query completes when *all* its fragments
//! have finished (the aggregation in `runtime` counts them down).
//!
//! Routing is a pure function of (partition, shard map, trace, decision
//! logs) — it depends on no execution state, which is the property that
//! lets the threaded executor route every fragment up-front and run shards
//! independently between controller rounds, yet bit-identically to the
//! stepped reference.

use std::collections::HashMap;

use liferaft_catalog::Partition;
use liferaft_query::{CrossMatchQuery, QueryId, QueryPreProcessor, WorkItem};
use liferaft_storage::{BucketId, SimTime};
use liferaft_workload::TimedTrace;

use crate::admission::{AdmissionLog, QueryClass};
use crate::failover::{Evacuation, FailoverLog, Redelivery, ShardTransition};
use crate::rebalance::{EpochRecord, RebalanceLog};
use crate::shard::{ElasticShardMap, ShardId, ShardMap};

/// One shard's slice of one query: the work items whose buckets the shard
/// owns, plus arrival/identity metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Index of the parent query within the routed trace.
    pub query_index: usize,
    /// The parent query.
    pub query: QueryId,
    /// Arrival instant of the parent query (ages reference this).
    pub arrival: SimTime,
    /// Release instant: when the fragment becomes *deliverable* to its
    /// shard. Equal to `arrival` unless the front door held the query back;
    /// ages keep referencing `arrival`, so front-door queueing shows up as
    /// response time exactly like queueing at a loaded shard.
    pub release: SimTime,
    /// The parent query's front-door class ([`QueryClass::Standard`] when
    /// the front door is disabled).
    pub class: QueryClass,
    /// The shard-local work items, sorted by bucket.
    pub items: Vec<WorkItem>,
    /// Total (object × bucket) assignments in `items`.
    pub assignments: u64,
}

/// The routing of one trace across one shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// Per-shard fragment streams, each in arrival order.
    pub shards: Vec<Vec<Fragment>>,
    /// Per trace index: number of fragments the query split into (at least
    /// 1 for every routed query — a query whose pre-processing produced no
    /// work ships as one empty fragment, see [`route`]; exactly 0 for a
    /// query the front door rejected, see [`route_logged`]).
    pub fragments_of: Vec<u32>,
    /// Per trace index: total assignments across all fragments.
    pub assignments_of: Vec<u64>,
    /// Queries that split across more than one shard.
    pub cross_shard_queries: usize,
    /// Total assignments across the whole trace.
    pub total_assignments: u64,
}

impl Routing {
    /// Total fragments across all shards.
    pub fn total_fragments(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// Routes `trace` across `map`, splitting every query's work items by the
/// shard that owns their bucket.
///
/// A query whose pre-processing yields no work items still produces one
/// **empty** fragment, routed to shard 0: the owning worker registers it
/// (it completes instantly at its arrival) and notifies its scheduler of
/// the arrival — mirroring what the single-engine `Simulation` does, so
/// arrival-driven policies (the adaptive controller) see the same stream.
pub fn route(partition: &Partition, map: &ShardMap, trace: &TimedTrace) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        map.num_buckets(),
        "shard map must cover the partition"
    );
    let n_shards = map.n_shards() as usize;
    let pre = QueryPreProcessor::new(partition);
    let mut shards: Vec<Vec<Fragment>> = vec![Vec::new(); n_shards];
    let mut fragments_of = Vec::with_capacity(trace.len());
    let mut assignments_of = Vec::with_capacity(trace.len());
    let mut cross_shard_queries = 0usize;
    let mut total_assignments = 0u64;
    // Per-query scratch: items grouped by shard (reused across queries).
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];

    for (query_index, (arrival, query)) in trace.entries().iter().enumerate() {
        let (fragments, assignments) = split_query(
            &pre,
            query_index,
            *arrival,
            *arrival,
            QueryClass::Standard,
            query,
            &mut |b| map.shard_of(b),
            &mut split,
            &mut shards,
        );
        if fragments > 1 {
            cross_shard_queries += 1;
        }
        fragments_of.push(fragments);
        assignments_of.push(assignments);
        total_assignments += assignments;
    }

    Routing {
        shards,
        fragments_of,
        assignments_of,
        cross_shard_queries,
        total_assignments,
    }
}

/// Splits one query into per-shard fragments, appending them to `shards`
/// (one stream per shard) and returning `(fragments, assignments)`. The
/// zero-work convention (one empty fragment to shard 0) lives here, so the
/// static router, the replay router, and the stepped driver's per-arrival
/// routing (front door included) all split queries with the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_query(
    pre: &QueryPreProcessor<'_>,
    query_index: usize,
    arrival: SimTime,
    release: SimTime,
    class: QueryClass,
    query: &CrossMatchQuery,
    shard_of: &mut dyn FnMut(BucketId) -> ShardId,
    split: &mut [Vec<WorkItem>],
    shards: &mut [Vec<Fragment>],
) -> (u32, u64) {
    let items = pre.preprocess(query);
    let mut assignments = 0u64;
    for item in items {
        assignments += item.len() as u64;
        split[shard_of(item.bucket).index()].push(item);
    }
    let mut fragments = 0u32;
    for (shard, items) in split.iter_mut().enumerate() {
        if items.is_empty() {
            continue;
        }
        fragments += 1;
        let items = std::mem::take(items);
        let assignments = items.iter().map(|i| i.len() as u64).sum();
        shards[shard].push(Fragment {
            query_index,
            query: query.id,
            arrival,
            release,
            class,
            items,
            assignments,
        });
    }
    if fragments == 0 {
        // No work anywhere: ship the arrival itself to shard 0.
        fragments = 1;
        shards[0].push(Fragment {
            query_index,
            query: query.id,
            arrival,
            release,
            class,
            items: Vec::new(),
            assignments: 0,
        });
    }
    (fragments, assignments)
}

/// Splits one arrival, released at `release` with class `class`, under the
/// live pool and appends the surviving fragments to `out` (per-shard
/// sinks): the query splits under the current elastic map exactly like any
/// other arrival, then — with failover
/// `enabled` — every fragment that landed on a **down** shard is popped
/// back off the stream and reported in `lost` (it was released into a dead
/// shard: lost in flight, to be re-delivered later), and a zero-work
/// query's empty marker fragment is retargeted from a dead shard 0 to the
/// lowest-id live shard. Returns `(delivered, fragments, assignments)`
/// where `fragments` counts the original split (the cross-shard signal)
/// and `delivered` the fragments actually shipped now.
///
/// Shared verbatim by the stepped driver and the threaded replay's
/// [`route_logged`], which is what keeps their per-shard fragment streams
/// bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_arrival(
    pre: &QueryPreProcessor<'_>,
    query_index: usize,
    arrival: SimTime,
    release: SimTime,
    class: QueryClass,
    query: &CrossMatchQuery,
    enabled: bool,
    up: &[bool],
    elastic: &ElasticShardMap,
    split: &mut [Vec<WorkItem>],
    out: &mut [Vec<Fragment>],
    lost: &mut Vec<(u32, Fragment)>,
) -> (u32, u32, u64) {
    let (fragments, assignments) = split_query(
        pre,
        query_index,
        arrival,
        release,
        class,
        query,
        &mut |b| elastic.shard_of(b),
        split,
        out,
    );
    let mut delivered = fragments;
    if enabled {
        // One arrival appends at most one fragment per shard, so a down
        // shard's lost slice — if any — is exactly its stream tail.
        for shard in 0..up.len() {
            if up[shard] {
                continue;
            }
            let Some(tail) = out[shard].last() else {
                continue;
            };
            if tail.query_index != query_index {
                continue;
            }
            if tail.items.is_empty() {
                // The zero-work marker fragment: nothing to lose, but its
                // arrival notification should reach a live scheduler.
                debug_assert_eq!(shard, 0, "empty fragments route to shard 0");
                let f = out[shard].pop().expect("tail checked above");
                match up.iter().position(|&u| u) {
                    Some(live) => out[live].push(f),
                    // No shard is up at all: leave it to ride out the
                    // outage — it completes at its arrival either way.
                    None => out[shard].push(f),
                }
            } else {
                let f = out[shard].pop().expect("tail checked above");
                delivered -= 1;
                lost.push((shard as u32, f));
            }
        }
    }
    (delivered, fragments, assignments)
}

/// One controller decision that changes the map or the pool, as the stepped
/// driver processed it.
pub(crate) enum Control<'l> {
    /// An outage edge, with the evacuations its down edge made (empty for
    /// an up edge, and for a down edge that found nothing to move).
    Edge(&'l ShardTransition, Vec<&'l Evacuation>),
    /// An epoch boundary and the moves it made.
    Epoch(&'l EpochRecord),
}

impl Control<'_> {
    /// The decision's boundary instant.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            Control::Edge(edge, _) => edge.at,
            Control::Epoch(rec) => rec.at,
        }
    }

    /// Whether the decision moved any bucket between shards.
    pub(crate) fn moves_buckets(&self) -> bool {
        match self {
            Control::Edge(_, evacs) => !evacs.is_empty(),
            Control::Epoch(rec) => !rec.moves.is_empty(),
        }
    }
}

/// Merges the outage edges of `failover` and the epoch records of
/// `rebalance` into the stepped driver's processing order: by instant, with
/// outage edges before epoch boundaries at equal instants. Both logs are
/// time-sorted already; two edges at one instant stay in transition order.
pub(crate) fn control_timeline<'l>(
    failover: &'l FailoverLog,
    rebalance: Option<&'l RebalanceLog>,
) -> Vec<Control<'l>> {
    let epochs: &[EpochRecord] = rebalance.map_or(&[], |rb| rb.records.as_slice());
    let edge = |tr: &'l ShardTransition| {
        let evacs = if tr.up {
            Vec::new()
        } else {
            failover
                .evacuations
                .iter()
                .filter(|e| e.boundary == tr.at && e.from == tr.shard)
                .collect()
        };
        Control::Edge(tr, evacs)
    };
    let mut timeline = Vec::with_capacity(failover.transitions.len() + epochs.len());
    let mut edges = failover.transitions.iter().peekable();
    let mut records = epochs.iter().peekable();
    loop {
        let next = match (edges.peek(), records.peek()) {
            (Some(tr), Some(rec)) if tr.at <= rec.at => edge(edges.next().expect("peeked")),
            (Some(_), None) => edge(edges.next().expect("peeked")),
            (_, Some(_)) => Control::Epoch(records.next().expect("peeked")),
            (None, None) => break,
        };
        timeline.push(next);
    }
    timeline
}

/// Routes `trace` under the recorded decision logs — a [`FailoverLog`]
/// (empty when no outage was injected), a [`RebalanceLog`] when elastic
/// rebalancing ran, and an [`AdmissionLog`] when the front door ran: the
/// pure function of `(partition, base map, decision logs, trace)` that lets
/// the threaded executor route everything up-front yet land every shard on
/// exactly the fragment stream the stepped driver produced. With every log
/// empty or absent this is [`route`].
///
/// Three event streams merge in time order — at equal instants, map/pool
/// changes first (outage edges before epoch boundaries, as the driver
/// processes them), then releases, then re-deliveries:
///
/// - **controller decisions** flip a shard's up/down state and apply the
///   down edge's evacuation reassignments, or apply an epoch's moves — so
///   arrivals at or after the instant route under the *new* map;
/// - **releases** split via `split_arrival` — fragments landing on a dead
///   shard are held back as lost. Without an admission log every query is
///   released at its arrival as [`QueryClass::Standard`]; with one, only
///   the admitted queries are, in admission (`seq`) order at their logged
///   instants with their verdicts' classes. A rejected query routes no
///   fragment (`fragments_of` is 0) but keeps its workload on record;
/// - **re-deliveries** (`to: Some`) re-release a held lost fragment on the
///   driver's chosen live shard at the logged attempt instant. Lost
///   fragments whose query the driver rejected are never re-released.
pub fn route_logged(
    partition: &Partition,
    base: &ShardMap,
    enabled: bool,
    log: &FailoverLog,
    rebalance: Option<&RebalanceLog>,
    admission: Option<&AdmissionLog>,
    trace: &TimedTrace,
) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        base.num_buckets(),
        "shard map must cover the partition"
    );
    let n_shards = base.n_shards() as usize;
    let pre = QueryPreProcessor::new(partition);
    let mut elastic = ElasticShardMap::new(*base);
    let mut up = vec![true; n_shards];
    let mut shards: Vec<Vec<Fragment>> = vec![Vec::new(); n_shards];
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];
    let mut fragments_of = vec![0u32; trace.len()];
    let mut assignments_of = vec![0u64; trace.len()];
    let mut cross_shard_queries = 0usize;
    let mut total_assignments = 0u64;
    // Lost fragments awaiting re-delivery, keyed by (query, dead shard) —
    // one arrival loses at most one fragment per shard.
    let mut lost: HashMap<(usize, u32), Fragment> = HashMap::new();
    let mut lost_scratch: Vec<(u32, Fragment)> = Vec::new();

    let changes = control_timeline(log, rebalance);
    let entries = trace.entries();
    let releases: Vec<(usize, SimTime, QueryClass)> = match admission {
        None => entries
            .iter()
            .enumerate()
            .map(|(i, (arrival, _))| (i, *arrival, QueryClass::Standard))
            .collect(),
        Some(door) => {
            assert_eq!(door.verdicts.len(), trace.len(), "one verdict per query");
            // Rejected queries never route, but their workload stays on record.
            for (i, v) in door.verdicts.iter().enumerate() {
                if !v.admitted() {
                    assignments_of[i] = v.assignments;
                }
            }
            door.admissions_in_seq_order()
                .into_iter()
                .map(|(i, at)| (i, at, door.verdicts[i].class))
                .collect()
        }
    };
    let deliveries: Vec<&Redelivery> = log.redeliveries.iter().filter(|r| r.to.is_some()).collect();
    let (mut ci, mut ai, mut ri) = (0usize, 0usize, 0usize);
    loop {
        let tc = changes.get(ci).map(Control::at);
        let ta = releases.get(ai).map(|r| r.1);
        let tr = deliveries.get(ri).map(|r| r.at);
        let Some(t) = [tc, ta, tr].into_iter().flatten().min() else {
            break;
        };
        if tc == Some(t) {
            match &changes[ci] {
                Control::Edge(edge, evacs) => {
                    up[edge.shard as usize] = edge.up;
                    for e in evacs {
                        elastic.reassign(e.bucket, ShardId(e.to));
                    }
                }
                Control::Epoch(rec) => {
                    for m in &rec.moves {
                        elastic.reassign(m.bucket, m.to);
                    }
                }
            }
            ci += 1;
            continue;
        }
        if ta == Some(t) {
            let (qi, release, class) = releases[ai];
            let (arrival, query) = &entries[qi];
            let (delivered, fragments, assignments) = split_arrival(
                &pre,
                qi,
                *arrival,
                release,
                class,
                query,
                enabled,
                &up,
                &elastic,
                &mut split,
                &mut shards,
                &mut lost_scratch,
            );
            for (from, f) in lost_scratch.drain(..) {
                lost.insert((qi, from), f);
            }
            if fragments > 1 {
                cross_shard_queries += 1;
            }
            fragments_of[qi] = delivered;
            assignments_of[qi] = assignments;
            total_assignments += assignments;
            ai += 1;
            continue;
        }
        let r = deliveries[ri];
        let f = lost
            .remove(&(r.query_index, r.from))
            .expect("re-delivery of a fragment that was never lost");
        let to = r.to.expect("deliveries are filtered to landed attempts") as usize;
        fragments_of[r.query_index] += 1;
        shards[to].push(Fragment { release: r.at, ..f });
        ri += 1;
    }

    Routing {
        shards,
        fragments_of,
        assignments_of,
        cross_shard_queries,
        total_assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, Catalog, MaterializedCatalog};
    use liferaft_query::{CrossMatchQuery, Predicate};
    use liferaft_workload::arrivals::uniform_arrivals;
    use liferaft_workload::Trace;

    const LEVEL: u8 = 8;

    fn fixture() -> (MaterializedCatalog, TimedTrace) {
        let sky = uniform_sky(2_000, LEVEL, 3);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        // Each query anchors on objects of several scattered buckets, so
        // multi-shard maps must split it.
        let queries: Vec<CrossMatchQuery> = (0..10)
            .map(|i| {
                let mut positions = Vec::new();
                for k in 0..4u32 {
                    let b = (i as u32 * 3 + k * 7) % 20;
                    let objs = cat.bucket_objects(liferaft_storage::BucketId(b));
                    positions.extend(objs.iter().step_by(25).map(|o| o.pos));
                }
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        let trace = Trace::new(LEVEL, queries);
        let timed = trace.with_arrivals(uniform_arrivals(1.0, 10));
        (cat, timed)
    }

    #[test]
    fn routing_conserves_assignments_and_respects_ownership() {
        let (cat, timed) = fixture();
        let pre = QueryPreProcessor::new(cat.partition());
        let expected: u64 = timed
            .entries()
            .iter()
            .map(|(_, q)| pre.workload_size(q))
            .sum();
        for map in [
            ShardMap::contiguous(cat.partition().num_buckets(), 4),
            ShardMap::hashed(cat.partition().num_buckets(), 4, 7),
        ] {
            let routing = route(cat.partition(), &map, &timed);
            assert_eq!(routing.total_assignments, expected);
            let by_fragment: u64 = routing.shards.iter().flatten().map(|f| f.assignments).sum();
            assert_eq!(by_fragment, expected);
            // Every item landed on the shard that owns its bucket, and
            // per-shard fragments are in arrival order.
            for (s, fragments) in routing.shards.iter().enumerate() {
                for w in fragments.windows(2) {
                    assert!(w[0].arrival <= w[1].arrival);
                }
                for f in fragments {
                    assert!(!f.items.is_empty());
                    for item in &f.items {
                        assert_eq!(map.shard_of(item.bucket).index(), s);
                    }
                }
            }
            // fragments_of counts match the shard streams.
            let mut counts = vec![0u32; timed.len()];
            for f in routing.shards.iter().flatten() {
                counts[f.query_index] += 1;
            }
            assert_eq!(counts, routing.fragments_of);
        }
    }

    #[test]
    fn single_shard_routing_is_whole_queries() {
        let (cat, timed) = fixture();
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 1);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.cross_shard_queries, 0);
        assert_eq!(routing.total_fragments(), timed.len());
        assert!(routing.fragments_of.iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_work_queries_ship_one_empty_fragment_to_shard_zero() {
        let (cat, _) = fixture();
        let empty = CrossMatchQuery::new(QueryId(7), vec![], Predicate::All);
        let timed = Trace::new(LEVEL, vec![empty]).with_arrivals(uniform_arrivals(1.0, 1));
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 4);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.fragments_of, vec![1]);
        assert_eq!(routing.shards[0].len(), 1);
        let f = &routing.shards[0][0];
        assert!(f.items.is_empty());
        assert_eq!(f.assignments, 0);
        assert!(routing.shards[1..].iter().all(|s| s.is_empty()));
    }

    #[test]
    fn logged_routing_replays_admissions_in_seq_order() {
        use crate::admission::{Disposition, QueryVerdict};
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture();
        let map = ShardMap::hashed(cat.partition().num_buckets(), 4, 1);
        let plain = route(cat.partition(), &map, &timed);
        let no_logs = FailoverLog::default();
        let logged = |admission| {
            route_logged(
                cat.partition(),
                &map,
                false,
                &no_logs,
                None,
                admission,
                &timed,
            )
        };

        // Without an admission log (and empty failover logs) this is `route`.
        assert_eq!(logged(None), plain);

        // Queries 2 and 7 are rejected; the rest admit out of arrival
        // order, two per instant, with mixed classes.
        let order = [1usize, 0, 3, 4, 6, 5, 9, 8];
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut verdicts: Vec<QueryVerdict> = (0..timed.len())
            .map(|i| QueryVerdict {
                class: QueryClass::ALL[i % 3],
                assignments: plain.assignments_of[i],
                sheds: 0,
                decision: Disposition::Rejected { at: at(30) },
            })
            .collect();
        for (seq, &i) in order.iter().enumerate() {
            verdicts[i].decision = Disposition::Admitted {
                at: at(20 + seq as u64 / 2),
                seq: seq as u64,
            };
        }
        let log = AdmissionLog {
            verdicts,
            ..AdmissionLog::default()
        };
        let routing = logged(Some(&log));
        assert!(routing.cross_shard_queries > 0, "fixture must split");
        for (s, stream) in routing.shards.iter().enumerate() {
            let seqs: Vec<usize> = stream
                .iter()
                .map(|f| order.iter().position(|&i| i == f.query_index).unwrap())
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "shard {s}: seq order");
            assert!(stream.windows(2).all(|w| w[0].release <= w[1].release));
            for f in stream {
                let v = &log.verdicts[f.query_index];
                assert!(
                    matches!(v.decision, Disposition::Admitted { at, .. } if at == f.release),
                    "shard {s}: query {} released off its logged instant",
                    f.query_index
                );
                assert_eq!(f.class, v.class);
                assert_eq!(f.arrival, timed.entries()[f.query_index].0);
                let split = plain.shards[s]
                    .iter()
                    .find(|g| g.query_index == f.query_index)
                    .expect("the same split as `route`");
                assert_eq!(f.items, split.items);
            }
        }
        for (i, v) in log.verdicts.iter().enumerate() {
            assert_eq!(routing.assignments_of[i], v.assignments, "query {i}");
            let expected = v.admitted().then_some(plain.fragments_of[i]);
            assert_eq!(routing.fragments_of[i], expected.unwrap_or(0), "query {i}");
        }
    }

    #[test]
    fn multi_shard_routing_splits_wide_queries() {
        let (cat, timed) = fixture();
        let map = ShardMap::hashed(cat.partition().num_buckets(), 4, 1);
        let routing = route(cat.partition(), &map, &timed);
        // The fixture's queries span several buckets; under hashing some
        // must split across shards.
        assert!(routing.cross_shard_queries > 0);
        assert!(routing.total_fragments() > timed.len());
    }
}
