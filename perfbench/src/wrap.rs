//! Wrapper types that time calls into the program from the outside.
//!
//! Each wrapper forwards every trait method to the wrapped value unchanged
//! and only records a span around the one call whose layer it measures, so
//! a run through the wrappers takes the same decisions and produces the
//! same report as a run without them.

use std::borrow::Cow;

use liferaft_catalog::{Catalog, Partition, SkyObject};
use liferaft_core::{BatchSpec, DecisionStats, Scheduler, SchedulerView};
use liferaft_storage::{BucketId, BucketMeta, SimTime};

use crate::spans::Tracer;

/// A scheduler whose `pick` is recorded as a `decide` span, with the
/// decision's candidate count as the span's work count.
pub struct TimedScheduler<S> {
    inner: S,
    tracer: Tracer,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        TimedScheduler { inner, tracer }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
        let candidates = view.candidate_count() as u64;
        let span = self.tracer.enter("decide");
        let spec = self.inner.pick(view);
        self.tracer.exit(span, candidates);
        spec
    }

    fn on_query_arrival(&mut self, now: SimTime) {
        self.inner.on_query_arrival(now);
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }
}

/// A catalog whose `bucket_objects` is recorded as a `catalog` span, with
/// the rows materialized as the span's work count.
pub struct TimedCatalog<'a, C: ?Sized> {
    inner: &'a C,
    tracer: Tracer,
}

impl<'a, C: ?Sized> TimedCatalog<'a, C> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a C, tracer: Tracer) -> Self {
        TimedCatalog { inner, tracer }
    }
}

impl<C: Catalog + ?Sized> Catalog for TimedCatalog<'_, C> {
    fn partition(&self) -> &Partition {
        self.inner.partition()
    }

    fn bucket_objects(&self, id: BucketId) -> Cow<'_, [SkyObject]> {
        let span = self.tracer.enter("catalog");
        let rows = self.inner.bucket_objects(id);
        self.tracer.exit(span, rows.len() as u64);
        rows
    }

    fn meta(&self, id: BucketId) -> &BucketMeta {
        self.inner.meta(id)
    }

    fn total_objects(&self) -> u64 {
        self.inner.total_objects()
    }
}

#[cfg(test)]
mod tests {
    use liferaft_runtime::{ExecMode, ShardedRuntime};

    use super::*;
    use crate::drive::replay;
    use crate::metrics::fingerprint;
    use crate::spans::layers;
    use crate::workload::{
        shard_scheduler, single_scheduler, small, small_single, Engine, Workload,
    };

    #[test]
    fn wrapped_scheduler_and_catalog_change_nothing_in_a_single_engine_run() {
        for w in [Workload::SaturatedArchive, Workload::CrossmatchJoins] {
            let (f, sim) = small_single(w);
            let plain = Tracer::new();
            let expected = replay(&f.catalog, sim, &f.trace, &mut single_scheduler(), &plain);

            let tracer = Tracer::new();
            let run = tracer.begin_run();
            let catalog = TimedCatalog::new(&f.catalog, tracer.clone());
            let mut scheduler = TimedScheduler::new(single_scheduler(), tracer.clone());
            let got = replay(&catalog, sim, &f.trace, &mut scheduler, &tracer);
            assert_eq!(
                fingerprint(&got.report),
                fingerprint(&expected.report),
                "{}: wrappers changed the run",
                w.name()
            );
            let l = layers(&tracer.spans(), run);
            let r = &got.report;
            assert_eq!(l["decide"].calls, r.batches, "one decide span per batch");
            assert_eq!(l["batch"].calls, r.batches);
            let reads = l.get("catalog").map_or(0, |c| c.calls);
            let expected_reads = if sim.execute_joins { r.batches } else { 0 };
            assert_eq!(reads, expected_reads, "one catalog read per executed join");
            let sum_self: u64 = l.values().map(|x| x.self_ns).sum();
            assert_eq!(
                sum_self, l["replay"].total_ns,
                "self times partition the replay"
            );
        }
    }

    #[test]
    fn wrapped_schedulers_change_nothing_in_a_runtime_run() {
        for w in [Workload::FlashCrowdDoor, Workload::CrashFailoverElastic] {
            let f = small(w);
            let Engine::Runtime(config) = &f.engine else {
                unreachable!("runtime workload")
            };
            let rt = ShardedRuntime::new(&f.catalog, config.clone());
            let expected = rt.run(
                &f.trace,
                &mut |_| Box::new(shard_scheduler()),
                ExecMode::Stepped,
            );
            let tracer = Tracer::new();
            let run = tracer.begin_run();
            let got = rt.run(
                &f.trace,
                &mut |_| Box::new(TimedScheduler::new(shard_scheduler(), tracer.clone())),
                ExecMode::Stepped,
            );
            assert_eq!(
                fingerprint(&got),
                fingerprint(&expected),
                "{}: wrappers changed the run",
                w.name()
            );
            assert!(layers(&tracer.spans(), run)["decide"].calls >= expected.global.batches);
        }
    }
}
