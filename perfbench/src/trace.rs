//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions; nothing inside the crates is instrumented. A span records
//! its layer, name, start, end and parent; counts are recorded at the
//! same boundaries. Self time is a span's duration minus the part of it
//! its child spans cover (one thread, so children never overlap).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span can be attributed to: the workspace crates the
/// benchmark calls into, plus the harness's own time. am-net has no
/// public entry point the workloads call directly; its cost shows inside
/// `run_bft_net` and the cluster.
pub const LAYERS: [&str; 8] = [
    "harness",
    "am-core",
    "am-poisson",
    "am-protocols",
    "am-bft",
    "am-mp",
    "am-node",
    "am-sched",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its result and the span's length
    /// in seconds.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[idx as usize].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Adds `by` to the count `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Seconds of self time per layer, in [`LAYERS`] order.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *per_layer.entry(s.layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        LAYERS
            .iter()
            .map(|l| (*l, per_layer.get(l).copied().unwrap_or(0) as f64 * 1e-9))
            .collect()
    }

    /// The spans and counts as JSON lines, for writing out at the end.
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.layer, sp.name, sp.start_ns, sp.end_ns
            );
        }
        for (name, v) in &self.counts {
            let _ = writeln!(s, "{{\"count\": \"{name}\", \"value\": {v}}}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("harness", "outer", |t| {
            spin(2_000_000);
            t.span("am-core", "inner", |_| spin(3_000_000));
        });
        let selfs: BTreeMap<_, _> = t.self_seconds().into_iter().collect();
        let (h, c) = (selfs["harness"], selfs["am-core"]);
        assert!(c >= 0.003, "inner self {c}");
        assert!(
            h >= 0.002 && h < outer - 0.003 + 1e-9,
            "outer self {h} of {outer}"
        );
        assert!(
            (h + c - outer).abs() < 1e-9,
            "self times partition the root"
        );
        assert_eq!(selfs["am-sched"], 0.0);
        let lines = t.to_json_lines();
        assert!(lines.contains("\"parent\": 0"));
        assert!(lines.contains("\"parent\": null"));
    }

    #[test]
    fn counts_accumulate() {
        let mut t = Tracer::new();
        t.count("x", 2);
        t.count("x", 3);
        assert!(t
            .to_json_lines()
            .contains("{\"count\": \"x\", \"value\": 5}"));
    }
}
