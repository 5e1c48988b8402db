//! The benchmark's own single-engine replay loop.
//!
//! It performs the same steps as `Simulation::run`, in the same order, but
//! calls each layer's public entry point itself so that it can put a span
//! around every call: covering (`QueryPreProcessor::preprocess`), enqueue
//! (`EngineCore::deliver_items`), the batch (`EngineCore::decide_and_execute`)
//! and the report (`EngineCore::into_report`). Decisions and bucket reads are
//! timed one level down by the wrapper scheduler and catalog.

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_query::QueryPreProcessor;
use liferaft_sim::{EngineCore, RunReport, SimConfig};
use liferaft_storage::SimTime;
use liferaft_workload::TimedTrace;

use crate::spans::Tracer;

/// A traced replay's report plus what the loop observed between calls.
pub struct Replay {
    /// The engine's report; equal to `Simulation::run`'s for the same input.
    pub report: RunReport,
    /// Largest queued entry count seen after an arrival was enqueued.
    pub peak_queued_entries: u64,
}

/// Replays `trace` through one [`EngineCore`], recording a `replay` root
/// span and one child span per layer call into `tracer`.
///
/// # Panics
/// Panics under the same conditions as `Simulation::run`.
pub fn replay<C: Catalog + ?Sized>(
    catalog: &C,
    config: SimConfig,
    trace: &TimedTrace,
    scheduler: &mut dyn Scheduler,
    tracer: &Tracer,
) -> Replay {
    let root = tracer.enter("replay");
    let pre = QueryPreProcessor::new(catalog.partition());
    let mut core = EngineCore::new(catalog, config);
    let arrivals = trace.entries();
    let mut next = 0usize;
    let mut now = SimTime::ZERO;
    let mut peak_queued_entries = 0u64;
    loop {
        while next < arrivals.len() && arrivals[next].0 <= now {
            let (at, query) = &arrivals[next];
            let span = tracer.enter("cover");
            let items = pre.preprocess(query);
            tracer.exit(span, items.len() as u64);
            let entries: u64 = items.iter().map(|i| i.len() as u64).sum();
            let span = tracer.enter("enqueue");
            core.deliver_items(query, &items, *at);
            tracer.exit(span, entries);
            peak_queued_entries = peak_queued_entries.max(core.total_queued());
            scheduler.on_query_arrival(*at);
            next += 1;
        }
        if core.is_idle() {
            if next < arrivals.len() {
                now = arrivals[next].0;
                continue;
            }
            break;
        }
        let span = tracer.enter("batch");
        now += core.decide_and_execute(scheduler, now);
        tracer.exit(span, 0);
    }
    assert!(core.all_complete(), "replay ended with incomplete queries");
    let span = tracer.enter("report");
    let report = core.into_report(scheduler, trace.len());
    tracer.exit(span, 0);
    tracer.exit(root, trace.len() as u64);
    Replay {
        report,
        peak_queued_entries,
    }
}

#[cfg(test)]
mod tests {
    use liferaft_query::CrossMatchQuery;
    use liferaft_sim::Simulation;
    use liferaft_storage::BucketId;
    use liferaft_workload::Trace;

    use super::*;
    use crate::measure::reference_matches;
    use crate::metrics::fingerprint;
    use crate::workload::{single_scheduler, small_single, Workload};

    #[test]
    fn bench_loop_reproduces_simulation_run_bit_for_bit() {
        for w in [Workload::SaturatedArchive, Workload::CrossmatchJoins] {
            let (f, sim) = small_single(w);
            let expected = Simulation::new(&f.catalog, sim).run(&f.trace, &mut single_scheduler());
            let tracer = Tracer::new();
            let got = replay(&f.catalog, sim, &f.trace, &mut single_scheduler(), &tracer);
            assert_eq!(
                fingerprint(&got.report),
                fingerprint(&expected),
                "{}: the bench loop diverged from Simulation::run",
                w.name()
            );
            assert_eq!(got.report.outcomes.len(), f.trace.len());
            assert!(got.peak_queued_entries > 0);
        }
    }

    #[test]
    fn reference_crossmatch_agrees_with_the_engine() {
        // Queries anchored on catalog rows, so that joins find matches;
        // each keeps its generated query's predicate.
        let (f, sim) = small_single(Workload::CrossmatchJoins);
        let queries: Vec<CrossMatchQuery> = f
            .trace
            .entries()
            .iter()
            .enumerate()
            .map(|(i, (_, q))| {
                let rows = f.catalog.bucket_objects(BucketId((i % 16) as u32 * 4));
                let positions: Vec<_> = rows.iter().skip(i % 7).step_by(7).map(|o| o.pos).collect();
                CrossMatchQuery::from_positions(q.id, &positions, 1e-4, 10, q.predicate)
            })
            .collect();
        let arrivals = f.trace.entries().iter().map(|(at, _)| *at).collect();
        let trace = Trace::new(10, queries).into_timed(arrivals);
        let r = Simulation::new(&f.catalog, sim).run(&trace, &mut single_scheduler());
        assert!(r.total_matches > 0, "the anchored queries must match");
        assert_eq!(reference_matches(&f.catalog, &trace), r.total_matches);
    }
}
