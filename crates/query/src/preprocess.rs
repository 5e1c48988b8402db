//! The query pre-processor: objects → per-bucket sub-queries.

use liferaft_catalog::Partition;
use liferaft_storage::BucketId;

use crate::crossmatch::CrossMatchQuery;
use crate::crossmatch::QueryId;

/// A sub-query: the slice of one query's objects that overlaps one bucket.
///
/// `W_i^j` in the paper's notation — "the set of objects from Qi that
/// overlap bucket Bj (i.e. the object and bucket's HTM ID ranges overlap)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// The parent query.
    pub query: QueryId,
    /// The bucket this sub-query joins against.
    pub bucket: BucketId,
    /// Indices into the parent query's `objects` vector.
    pub object_indices: Vec<u32>,
}

impl WorkItem {
    /// Number of objects in this sub-query.
    pub fn len(&self) -> usize {
        self.object_indices.len()
    }

    /// True if the item carries no objects (never produced by preprocessing).
    pub fn is_empty(&self) -> bool {
        self.object_indices.is_empty()
    }
}

/// Splits queries into per-bucket work items against a partition.
#[derive(Debug, Clone)]
pub struct QueryPreProcessor<'a> {
    partition: &'a Partition,
}

impl<'a> QueryPreProcessor<'a> {
    /// Creates a pre-processor for the given bucket layout.
    pub fn new(partition: &'a Partition) -> Self {
        QueryPreProcessor { partition }
    }

    /// Decomposes a query into work items, one per overlapped bucket,
    /// ordered by bucket ID, with object indices ascending in each item.
    ///
    /// An object whose bounding box spans `k` buckets contributes to `k`
    /// work items; each bucket is joined independently and no duplicate
    /// elimination is needed because every catalog point lives in exactly
    /// one bucket (Section 3.1).
    pub fn preprocess(&self, query: &CrossMatchQuery) -> Vec<WorkItem> {
        // A query touches few buckets and consecutive objects mostly share
        // one, so the item last appended to is tried first and the short
        // item list is scanned on a miss; sorting the items once at the end
        // is cheaper than keeping a map ordered per assignment.
        let mut items: Vec<WorkItem> = Vec::new();
        let mut hit = 0;
        self.for_each_assignment(query, |bucket, idx| {
            if items.get(hit).map(|w| w.bucket) != Some(bucket) {
                hit = match items.iter().position(|w| w.bucket == bucket) {
                    Some(i) => i,
                    None => {
                        items.push(WorkItem {
                            query: query.id,
                            bucket,
                            object_indices: Vec::new(),
                        });
                        items.len() - 1
                    }
                };
            }
            items[hit].object_indices.push(idx);
        });
        items.sort_unstable_by_key(|w| w.bucket);
        items
    }

    /// Total number of (object, bucket) assignments a query expands to —
    /// the amount of workload-queue space it will occupy. Counts without
    /// building the work items.
    pub fn workload_size(&self, query: &CrossMatchQuery) -> u64 {
        let mut n = 0;
        self.for_each_assignment(query, |_, _| n += 1);
        n
    }

    /// Calls `f(bucket, object index)` once for every bucket each object's
    /// bounding box overlaps, objects in order and each object's buckets
    /// ascending. An object with an empty bounding box overlaps nothing.
    ///
    /// A bounding box is a few short ranges that nearly always fall inside
    /// one bucket, so two shortcuts come before the exact per-range search:
    /// an object inside the bucket the previous object landed in needs no
    /// search at all, and an object whose first and last IDs share a bucket
    /// lies wholly in it (buckets tile the curve contiguously). Only objects
    /// that straddle buckets look up each range, since a box with gaps may
    /// skip a whole bucket between its ranges.
    fn for_each_assignment(&self, query: &CrossMatchQuery, mut f: impl FnMut(BucketId, u32)) {
        let p = self.partition;
        // Raw HTM bounds and ID of the last bucket hit; starts empty.
        let (mut lo, mut hi, mut last) = (u64::MAX, 0, BucketId(0));
        for (idx, obj) in query.objects.iter().enumerate() {
            let idx = idx as u32;
            let ranges = obj.bbox.ranges();
            let (Some(first), Some(end)) = (ranges.first(), ranges.last()) else {
                continue;
            };
            if lo <= first.lo().raw() && end.hi().raw() <= hi {
                f(last, idx);
                continue;
            }
            let (b_lo, b_hi) = (p.bucket_of(first.lo()), p.bucket_of(end.hi()));
            if b_lo == b_hi {
                f(b_lo, idx);
            } else {
                let mut prev = None;
                for r in ranges {
                    for b in p.buckets_overlapping(*r) {
                        if prev != Some(b) {
                            f(BucketId(b), idx);
                            prev = Some(b);
                        }
                    }
                }
            }
            let range = p.meta(b_hi).htm_range;
            (lo, hi, last) = (range.lo().raw(), range.hi().raw(), b_hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossmatch::{MatchObject, Predicate};
    use liferaft_catalog::Partition;
    use liferaft_htm::{HtmId, HtmRange, HtmRangeSet, Vec3};
    use proptest::prelude::*;

    const LEVEL: u8 = 8;

    fn partition() -> Partition {
        Partition::synthetic_uniform(LEVEL, 64, 100, 4096)
    }

    fn query_at(positions: &[(f64, f64)], radius: f64) -> CrossMatchQuery {
        let ps: Vec<Vec3> = positions
            .iter()
            .map(|&(ra, dec)| Vec3::from_radec_deg(ra, dec))
            .collect();
        CrossMatchQuery::from_positions(QueryId(1), &ps, radius, LEVEL, Predicate::All)
    }

    #[test]
    fn single_tiny_object_maps_to_one_or_few_buckets() {
        let p = partition();
        let q = query_at(&[(123.0, 45.0)], 1e-6);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(!items.is_empty());
        assert!(items.len() <= 4, "tiny object hit {} buckets", items.len());
        let total: usize = items.iter().map(WorkItem::len).sum();
        assert!(total >= 1);
        for item in &items {
            assert_eq!(item.query, QueryId(1));
            assert!(!item.is_empty());
        }
    }

    #[test]
    fn objects_group_by_bucket() {
        let p = partition();
        // Two objects at the same position must land in the same bucket(s),
        // grouped into shared work items.
        let q = query_at(&[(200.0, -30.0), (200.0, -30.0)], 1e-6);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        for item in &items {
            assert_eq!(item.object_indices, vec![0, 1]);
        }
    }

    #[test]
    fn work_items_are_sorted_by_bucket() {
        let p = partition();
        let q = query_at(
            &[(10.0, 0.0), (100.0, 40.0), (200.0, -40.0), (300.0, 10.0)],
            1e-5,
        );
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(items.windows(2).all(|w| w[0].bucket < w[1].bucket));
    }

    #[test]
    fn every_object_appears_somewhere() {
        let p = partition();
        let q = query_at(
            &[
                (0.1, 0.1),
                (90.0, 45.0),
                (180.0, -45.0),
                (270.0, 80.0),
                (45.0, -80.0),
            ],
            1e-4,
        );
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        let mut seen = vec![false; q.len()];
        for item in &items {
            for &i in &item.object_indices {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "an object was dropped: {seen:?}");
    }

    #[test]
    fn wide_region_spans_many_buckets() {
        let p = partition();
        // A 20° error circle crosses many level-8 buckets.
        let q = query_at(&[(50.0, 20.0)], 20f64.to_radians());
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(items.len() > 1, "wide region should span buckets");
    }

    #[test]
    fn workload_size_counts_assignments() {
        let p = partition();
        let q = query_at(&[(50.0, 20.0), (51.0, 20.0)], 1e-6);
        let pre = QueryPreProcessor::new(&p);
        let total: u64 = pre.preprocess(&q).iter().map(|w| w.len() as u64).sum();
        assert_eq!(pre.workload_size(&q), total);
        assert!(total >= 2);
    }

    #[test]
    fn empty_query_yields_no_items() {
        let p = partition();
        let q = CrossMatchQuery::new(QueryId(9), vec![], Predicate::All);
        assert!(QueryPreProcessor::new(&p).preprocess(&q).is_empty());
    }

    #[test]
    fn object_spanning_bucket_boundary_appears_in_both() {
        let p = partition();
        // Place an object exactly at a bucket boundary with a radius wide
        // enough to spill over.
        let boundary = p.buckets()[10].htm_range.lo();
        let pos = liferaft_htm::trixel_of(boundary).center();
        let obj = MatchObject::new(pos, 0.02, LEVEL);
        let q = CrossMatchQuery::new(QueryId(2), vec![obj], Predicate::All);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(
            items.len() >= 2,
            "boundary object should hit both neighbouring buckets, got {}",
            items.len()
        );
        assert!(items
            .iter()
            .any(|i| i.bucket == liferaft_storage::BucketId(10)));
    }

    /// The reference assignment: every object's overlapping buckets from
    /// `Partition::buckets_overlapping_set`, grouped in an ordered map.
    fn oracle(p: &Partition, query: &CrossMatchQuery) -> Vec<WorkItem> {
        let mut per_bucket: std::collections::BTreeMap<BucketId, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (idx, obj) in query.objects.iter().enumerate() {
            for b in p.buckets_overlapping_set(&obj.bbox) {
                per_bucket.entry(b).or_default().push(idx as u32);
            }
        }
        per_bucket
            .into_iter()
            .map(|(bucket, object_indices)| WorkItem {
                query: query.id,
                bucket,
                object_indices,
            })
            .collect()
    }

    /// Partition geometries the property runs over: (level, bucket count).
    const GEOMETRIES: [(u8, u32); 7] = [
        (4, 1),
        (4, 2),
        (6, 3),
        (6, 7),
        (8, 64),
        (10, 500),
        (12, 2048),
    ];

    /// The object-level ID at fraction `f` of bucket `b`'s span.
    fn id_in(p: &Partition, b: u32, f: f64) -> HtmId {
        let r = p.buckets()[b as usize].htm_range;
        let off = ((r.len() - 1) as f64 * f) as u64;
        HtmId::from_raw(r.lo().raw() + off).expect("inside the bucket")
    }

    /// One object of kind `kind`, drawn from `a`, `b`, `c` ∈ [0, 1).
    fn arb_object(p: &Partition, kind: u8, a: f64, b: f64, c: f64) -> MatchObject {
        let level = p.level();
        let n = p.num_buckets() as u32;
        let pick = |f: f64| ((f * n as f64) as u32).min(n - 1);
        let pos = Vec3::from_radec_deg(a * 360.0, (2.0 * b - 1.0).asin().to_degrees());
        let set = |ranges: Vec<HtmRange>| MatchObject {
            pos,
            radius: 1e-5,
            bbox: HtmRangeSet::from_ranges(ranges),
        };
        match kind {
            // Clustered error circles: consecutive objects share buckets.
            0 => MatchObject::new(
                Vec3::from_radec_deg(40.0 + a, 10.0 + b),
                10f64.powf(-6.0 + 4.0 * c),
                level,
            ),
            // Anywhere on the sky, up to a few degrees wide.
            1 => MatchObject::new(pos, 10f64.powf(-6.0 + 4.5 * c), level),
            // A two-range bbox straddling the boundary into bucket j.
            2 => {
                let j = pick(a).max(1).min(n - 1);
                let before = id_in(p, j.saturating_sub(1), 0.5 + 0.5 * b);
                let after = id_in(p, j, 0.5 * c);
                set(vec![
                    HtmRange::singleton(before),
                    HtmRange::new(after, after),
                ])
            }
            // Ranges that skip a whole bucket between them.
            3 if n >= 3 => {
                let j = pick(a).min(n - 3);
                set(vec![
                    HtmRange::singleton(id_in(p, j, b)),
                    HtmRange::singleton(id_in(p, j + 2, c)),
                ])
            }
            // The curve's two ends: the first and the last bucket.
            4 => {
                let (first, last) = (0, n - 1);
                let at = if a < 0.5 {
                    id_in(p, first, b * 0.01)
                } else {
                    id_in(p, last, 1.0 - c * 0.01)
                };
                set(vec![HtmRange::singleton(at)])
            }
            // A pub-field object with no bbox: overlaps nothing.
            5 => set(Vec::new()),
            // Up to four ranges anywhere on the curve.
            _ => {
                let ids: Vec<HtmRange> = [a, b, c, (a + c) / 2.0]
                    .iter()
                    .take(1 + (a * 4.0) as usize)
                    .map(|&f| {
                        let bucket = pick(f);
                        let lo = id_in(p, bucket, b);
                        let hi = id_in(p, bucket, b.max(c));
                        HtmRange::new(lo, hi)
                    })
                    .collect();
                set(ids)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shortcut assignment equals the reference on random queries of
        /// every kind of object, at several levels and bucket counts, and
        /// `workload_size` counts exactly the assignments it makes.
        #[test]
        fn preprocess_matches_the_reference(
            geometry in 0..GEOMETRIES.len(),
            objects in proptest::collection::vec(
                (0u8..7, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                0..40,
            ),
        ) {
            let (level, n) = GEOMETRIES[geometry];
            let p = Partition::synthetic_uniform(level, n, 100, 4096);
            let objects: Vec<MatchObject> = objects
                .iter()
                .map(|&(kind, a, b, c)| arb_object(&p, kind, a, b, c))
                .collect();
            let q = CrossMatchQuery::new(QueryId(5), objects, Predicate::All);
            let pre = QueryPreProcessor::new(&p);
            let items = pre.preprocess(&q);
            prop_assert_eq!(&items, &oracle(&p, &q));
            let total: u64 = items.iter().map(|w| w.len() as u64).sum();
            prop_assert_eq!(pre.workload_size(&q), total);
        }
    }

    #[test]
    fn bbox_skipping_a_bucket_does_not_assign_it() {
        let p = partition();
        let q = CrossMatchQuery::new(
            QueryId(3),
            vec![arb_object(&p, 3, 0.5, 0.9, 0.1)],
            Predicate::All,
        );
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        let buckets: Vec<u32> = items.iter().map(|w| w.bucket.0).collect();
        assert_eq!(buckets, vec![32, 34]);
        assert_eq!(items, oracle(&p, &q));
    }

    #[test]
    fn objects_with_empty_bbox_yield_nothing() {
        let p = partition();
        let mut q = query_at(&[(10.0, 0.0), (10.0, 0.0)], 1e-6);
        q.objects[0].bbox = HtmRangeSet::empty();
        let pre = QueryPreProcessor::new(&p);
        let items = pre.preprocess(&q);
        assert!(items.iter().all(|w| w.object_indices == vec![1]));
        assert_eq!(pre.workload_size(&q), items.len() as u64);
        q.objects[1].bbox = HtmRangeSet::empty();
        assert!(pre.preprocess(&q).is_empty());
        assert_eq!(pre.workload_size(&q), 0);
    }
}
