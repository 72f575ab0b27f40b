//! Metric names, exact percentiles and the result line.
//!
//! Every number the benchmark prints goes through [`Metric`]; the
//! end-to-end and per-layer name tables here are the single list the
//! output and `BENCHMARK.json` are checked against (see the tests).

use std::fmt::Write as _;

/// The end-to-end metrics, printed by every untraced run, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("append_p50_us", "us"),
    ("append_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("snapshot_p50_us", "us"),
    ("snapshot_p99_us", "us"),
];

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("protocols.sweep.trials", "count"),
    ("protocols.sweep.measure_s", "s"),
    ("protocols.sweep.engine_share", "ratio"),
    ("protocols.run_dag.trial_us", "us"),
    ("protocols.run_chain.trial_us", "us"),
    ("protocols.run_timestamp.trial_us", "us"),
    ("poisson.next_grant_ns", "ns"),
    ("core.incremental.on_append_ns", "ns"),
    ("core.cone_cover.on_append_ns", "ns"),
    ("protocols.run_bft.trials_finalized", "count"),
    ("protocols.run_bft.trials_stalled", "count"),
    ("protocols.run_bft.appends", "count"),
    ("protocols.run_bft.ns_per_append.finalizing", "ns"),
    ("protocols.run_bft.ns_per_append.stalled", "ns"),
    ("protocols.run_bft_net.trial_ms", "ms"),
    ("net.msgs_sent.bft_net", "count"),
    ("net.ns_per_msg.bft_net", "ns"),
    ("core.incremental.deepest_in_prefix_ns.k", "ns"),
    ("core.incremental.tips_of_prefix_ns.k", "ns"),
    ("core.incremental.deepest_in_prefix_ns.stalled", "ns"),
    ("core.incremental.tips_of_prefix_ns.stalled", "ns"),
    ("bft.observe_ns", "ns"),
    ("bft.blocks_observed", "count"),
    ("net.msgs_per_append", "msg/op"),
    ("net.msgs_per_read", "msg/op"),
    ("node.handle_ns.lookup", "ns"),
    ("node.errors", "count"),
    ("mp.append_us", "us"),
    ("mp.read_us", "us"),
    ("node.mempool.submit_ns", "ns"),
    ("node.mempool.take_batch_ns", "ns"),
    ("node.archive.sync_from_us", "us"),
    ("node.archive.snapshot_at_us", "us"),
    ("sched.search.states", "count"),
    ("sched.search.transitions", "count"),
    ("sched.search.fingerprint_hits", "count"),
    ("sched.search.por_sleep_skipped", "count"),
    ("sched.search.symmetry_folds", "count"),
    ("sched.search.ample_commits", "count"),
    ("sched.search.states_per_s", "1/s"),
    ("sched.search.revisit_ratio", "ratio"),
    ("sched.round_lb.query_ms", "ms"),
    ("sched.nonforking.query_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.self_s.harness", "s"),
    ("trace.self_s.am-core", "s"),
    ("trace.self_s.am-poisson", "s"),
    ("trace.self_s.am-protocols", "s"),
    ("trace.self_s.am-bft", "s"),
    ("trace.self_s.am-mp", "s"),
    ("trace.self_s.am-node", "s"),
    ("trace.self_s.am-sched", "s"),
];

/// The latency classes behind the `append_*`, `read_*` and `snapshot_*`
/// metrics, in that order.
pub const CLASSES: [&str; 3] = ["append", "read", "snapshot"];

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile or a best-of-epochs value,
    /// printed beside it.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: None,
        }
    }

    pub fn counted(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, unit, value)
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples. The
/// small slack keeps binary rounding (0.999 × 10 000 = 9990.000…2) from
/// pushing an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Exact percentile by nearest rank: always one of the samples, never an
/// interpolated or bucketed value. `sorted` must be ascending and
/// non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly above percentile `p`'s rank among `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, or `None` below 11 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(p, n) >= 10)
}

/// The run's final line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
        // JSON has no NaN or infinity; a value that is not finite is a
        // harness bug, not a measurement.
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable lines, one per metric, with sample counts.
pub fn describe(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = write!(s, "{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(s, "  (n = {n})");
            if m.name.contains("_p99_") {
                let tail = tail_percentile(n).map_or("none".into(), |p| format!("p{p}"));
                let _ = write!(
                    s,
                    " {} beyond p99; highest percentile with 10 beyond: {tail}",
                    samples_beyond(99.0, n)
                );
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Nearest rank never interpolates: a two-point set answers with
        // one of its points, not 1.5.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51.0), 2.0);
        // And never rounds to a bucket bound: 37 stays 37, not 64.
        assert_eq!(percentile(&[37.0], 99.0), 37.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(99.0, 1000), 10);
        assert_eq!(samples_beyond(99.0, 999), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn metric_names_are_restricted() {
        assert!(valid_name("protocols.run_bft.ns_per_append.finalizing"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("trace.self_s.am-core"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        for (name, _) in END_TO_END {
            assert!(valid_name(name));
        }
        for (name, _) in PER_LAYER {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| Metric::new(*name, unit, 0.5 + i as f64))
            .collect();
        let line = result_line(true, 10, 0, &metrics);
        let v: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        let keys: Vec<&str> = match &v {
            serde_json::Value::Object(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").expect("metrics");
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                entry.get("value").and_then(|x| x.as_f64()),
                Some(0.5 + i as f64)
            );
            assert_eq!(
                entry.get("unit"),
                Some(&serde_json::Value::String((*unit).into()))
            );
        }
    }

    /// The name tables here and `BENCHMARK.json` list the same metrics,
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_name_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match v.get(key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| match m.get(k) {
                            Some(serde_json::Value::String(s)) => s.clone(),
                            other => panic!("{key}.{k}: {other:?}"),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match v.get("workloads") {
            Some(serde_json::Value::Array(items)) => items
                .iter()
                .map(|w| match w.get("name") {
                    Some(serde_json::Value::String(s)) => s.clone(),
                    other => panic!("workload name: {other:?}"),
                })
                .collect(),
            other => panic!("workloads: {other:?}"),
        };
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
