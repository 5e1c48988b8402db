//! Metric names, units, statistics helpers and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("queries_per_s", "queries/s"),
    ("peak_rss_mb", "MB"),
    ("sim_qps", "queries/s"),
    ("sim_p50_s", "s"),
    ("sim_p99_s", "s"),
    ("interactive_p99_s", "s"),
    ("completed_frac", "ratio"),
];

/// The per-layer metrics, printed by every traced run. A layer that a
/// workload does not exercise, or does not time separately, reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("cover.busy_s", "s"),
    ("cover.queries", "count"),
    ("cover.work_items", "count"),
    ("cover.us_per_query", "us"),
    ("enqueue.busy_s", "s"),
    ("enqueue.entries", "count"),
    ("enqueue.peak_queued_entries", "count"),
    ("decide.picks", "count"),
    ("decide.busy_s", "s"),
    ("decide.pick_ns_p50", "ns"),
    ("decide.pick_ns_p99", "ns"),
    ("decide.candidates_mean", "count"),
    ("decide.frontier_picks", "count"),
    ("decide.fallback_picks", "count"),
    ("decide.fallback_ratio", "ratio"),
    ("decide.max_wait_s", "s"),
    ("batch.calls", "count"),
    ("batch.self_s", "s"),
    ("batch.entries_per_batch", "count"),
    ("batch.scan_batches", "count"),
    ("batch.indexed_batches", "count"),
    ("catalog.reads", "count"),
    ("catalog.busy_s", "s"),
    ("catalog.rows", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.served_ratio", "ratio"),
    ("io.bucket_reads", "count"),
    ("join.matches", "count"),
    ("join.match_ratio", "ratio"),
    ("report.busy_s", "s"),
    ("route.busy_s", "s"),
    ("route.fragments", "count"),
    ("route.cross_shard_queries", "count"),
    ("runtime.busy_s", "s"),
    ("runtime.controller_s", "s"),
    ("runtime.shard_picks", "count"),
    ("runtime.stepped_wall_s", "s"),
    ("runtime.threaded_wall_s", "s"),
    ("runtime.threaded_over_stepped", "ratio"),
    ("admission.shed_events", "count"),
    ("admission.deferred", "count"),
    ("admission.rejected", "count"),
    ("admission.interactive_ttfb_p99_s", "s"),
    ("failover.evacuated_entries", "count"),
    ("failover.redeliveries", "count"),
    ("failover.rejected", "count"),
    ("failover.recovery_lag_s", "s"),
    ("rebalance.moves", "count"),
    ("rebalance.moved_entries", "count"),
    ("telemetry.events", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.rounds", "count"),
    ("trace.spans", "count"),
];

/// True if `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A set of named values drawn from one of the tables above.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be in the table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the table"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every table entry with its value (0 where unset), in table order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }

    /// True once every table entry has a value.
    pub fn complete(&self) -> bool {
        self.table.iter().all(|(n, _)| self.values.contains_key(n))
    }
}

/// Per-name medians over several metric sets from the same table.
pub fn medians(sets: &[Metrics]) -> Metrics {
    let mut out = Metrics::new(sets[0].table);
    for &(name, _) in sets[0].table {
        let mut v: Vec<f64> = sets.iter().filter_map(|m| m.get(name)).collect();
        if !v.is_empty() {
            out.set(name, median(&mut v));
        }
    }
    out
}

/// The result of one benchmark invocation: its last line of output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Timed replays performed.
    pub attempted: u64,
    /// Timed replays whose output failed a check.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The one-line JSON result. A non-finite value cannot be printed as
    /// JSON; it prints as 0 and marks the result incorrect, as does an
    /// illegal metric name.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let mut body = String::new();
        for (i, (name, value, unit)) in self.metrics.rows().into_iter().enumerate() {
            correct &= valid_name(name);
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (0 if empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A 64-bit fingerprint of a value's `Debug` form. `Debug` prints every
/// float in its shortest round-trip form, so two reports share a
/// fingerprint exactly when they are bit-identical (barring a hash
/// collision). Hashing as it formats avoids holding the text in memory.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(std::collections::hash_map::DefaultHasher::new());
    write!(w, "{value:?}").expect("hashing cannot fail");
    w.0.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_name_is_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "illegal metric name {n:?}");
            assert!(n.len() <= 64, "metric name {n:?} is too long");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name repeats");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::new(&END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        assert!(m.complete());
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m,
        }
        .to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn non_finite_values_mark_the_result_incorrect() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", f64::NAN);
        let line = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: m,
        }
        .to_json();
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 99.0), 4);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(fingerprint(&(1.0f64, 2u8)), fingerprint(&(1.0f64, 2u8)));
        assert_ne!(fingerprint(&0.1f64), fingerprint(&(0.1f64 + f64::EPSILON)));
    }
}
