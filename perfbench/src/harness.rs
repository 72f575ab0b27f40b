//! What every workload shares: the epoch loop of the untraced run, the
//! result shapes, and seed mixing.
//!
//! An epoch is one set-up of the workload's pre-state followed by one
//! pass over its fixed, seed-generated op list. Every epoch of a run
//! gets the same inputs, so the i-th op of every epoch does the same
//! work. The run keeps each op's best time over its epochs, and each
//! set-up step's: on a shared host a slow phase lasts seconds and makes
//! identical work up to 1.7 times slower, and an op's best over several
//! epochs, seconds apart, is the time of that work outside such phases.
//! Ops that repeat one another's work within an epoch share one best
//! over all their tries. The end-to-end metrics are computed from these
//! best times.

use crate::report::Metric;
use std::time::Instant;

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shuffles `v` by a seeded Fisher–Yates pass, so that each latency
/// class's ops spread over the whole epoch instead of running in one
/// stretch, where a single slow moment of the host would hit all of
/// them.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Runs `op` on each index of `0..n` in an order drawn from `seed`, and
/// returns the results in index order. With a new order every epoch, an
/// op's tries follow different ops, so no op inherits one predecessor's
/// cache footprint in every try.
pub fn in_shuffled_order<T>(n: usize, seed: u64, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, seed);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for i in order {
        out[i] = Some(op(i));
    }
    out.into_iter().flatten().collect()
}

/// An epoch's runs of a list of `n` ops: each op once, in list order,
/// then each op `extra` gives more runs again until it has them all. A
/// repeat names the op's first run, which is its index in the list.
pub fn runs(n: usize, extra: impl Fn(usize) -> usize) -> Vec<(usize, Option<usize>)> {
    let mut out: Vec<_> = (0..n).map(|i| (i, None)).collect();
    for i in 0..n {
        out.extend(std::iter::repeat_n((i, Some(i)), extra(i)));
    }
    out
}

/// Folds `v` into a running output digest.
pub fn fold(h: u64, v: u64) -> u64 {
    mix(h ^ v)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Ops attempted and failed, and the output checks that broke.
#[derive(Debug, Default)]
pub struct Accounting {
    pub attempted: u64,
    pub failed: u64,
    pub broken: Vec<String>,
}

impl Accounting {
    /// Records a broken output check; `ops` are the ops it invalidates.
    pub fn broke(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.broken.len() < 20 {
            self.broken.push(what);
        }
    }

    pub fn absorb(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken.extend(other.broken);
    }
}

/// Times a sequence of steps, in order.
#[derive(Default)]
pub struct Laps(pub Vec<f64>);

impl Laps {
    /// Runs `f` and records its seconds as the next step.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(secs(t));
        out
    }
}

/// One timed op of an epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub s: f64,
    /// How many ops it counts as in `ops_per_s` (a sweep point runs a
    /// budget of trials).
    pub weight: u64,
    /// Latency class (0 append, 1 read, 2 snapshot), if any.
    pub class: Option<usize>,
    /// The earlier op of the epoch whose work this one repeats exactly:
    /// the two share one best time, and only the earlier one is a
    /// sample of its class.
    pub same_as: Option<usize>,
}

/// What one untraced epoch measured.
pub struct Epoch {
    /// Seconds of each set-up step, in a fixed order.
    pub setup: Vec<f64>,
    /// Every op of the epoch, in list order.
    pub ops: Vec<Op>,
    /// Digest of the epoch's outputs; equal inputs must give equal
    /// digests.
    pub digest: u64,
}

/// What the untraced run measured over all its epochs.
#[derive(Default)]
pub struct EndToEnd {
    /// Each set-up step's best seconds over the epochs.
    best_setup: Vec<f64>,
    /// Each op's best seconds over the epochs.
    best: Vec<Op>,
    /// Per epoch: set-up seconds, and ops per op-second over the first
    /// run of each op — the list a traced pass runs once.
    pub setup_s: Vec<f64>,
    pub rates: Vec<f64>,
    pub digest: Option<u64>,
    pub acct: Accounting,
}

/// Ops per second of op time.
fn rate(ops: &[Op]) -> f64 {
    ops.iter().map(|o| o.weight).sum::<u64>() as f64 / ops.iter().map(|o| o.s).sum::<f64>()
}

impl EndToEnd {
    /// Runs `epoch` until `seconds` have passed, and at least three
    /// times so that each op has several tries at its best time;
    /// `seconds` = 0 runs exactly one epoch. `epoch` books its ops and
    /// broken checks in the accounting.
    pub fn run(seconds: f64, mut epoch: impl FnMut(&mut Accounting) -> Epoch) -> Self {
        let min = if seconds > 0.0 { 3 } else { 1 };
        let start = Instant::now();
        let mut e = EndToEnd::default();
        loop {
            let ep = epoch(&mut e.acct);
            e.setup_s.push(ep.setup.iter().sum());
            let first: Vec<Op> = ep
                .ops
                .iter()
                .filter(|o| o.same_as.is_none())
                .copied()
                .collect();
            e.rates.push(rate(&first));
            let shape = |ops: &[Op]| -> Vec<_> {
                ops.iter().map(|o| (o.weight, o.class, o.same_as)).collect()
            };
            match e.digest {
                None => {
                    e.digest = Some(ep.digest);
                    e.best_setup = ep.setup;
                    e.best = ep.ops;
                }
                Some(d) if d != ep.digest || shape(&ep.ops) != shape(&e.best) => e.acct.broke(
                    ep.ops.iter().map(|o| o.weight).sum(),
                    format!(
                        "epoch {} output digest {:#x} or op list differs from epoch 0's {d:#x}",
                        e.rates.len() - 1,
                        ep.digest
                    ),
                ),
                Some(_) => {
                    for (b, x) in e.best_setup.iter_mut().zip(ep.setup) {
                        *b = b.min(x);
                    }
                    for (b, o) in e.best.iter_mut().zip(ep.ops) {
                        b.s = b.s.min(o.s);
                    }
                }
            }
            let n = e.rates.len();
            let per_epoch = secs(start) / n as f64;
            if n >= min && secs(start) + per_epoch / 2.0 >= seconds {
                return e;
            }
        }
    }

    /// Each op's best time, pooled over the ops that repeat its work.
    fn pooled(&self) -> Vec<Op> {
        let mut ops = self.best.clone();
        for i in 0..ops.len() {
            if let Some(j) = ops[i].same_as {
                ops[j].s = ops[j].s.min(ops[i].s);
            }
        }
        for i in 0..ops.len() {
            if let Some(j) = ops[i].same_as {
                ops[i].s = ops[j].s;
            }
        }
        ops
    }

    /// The workload-independent end-to-end metrics, in
    /// [`crate::report::END_TO_END`] order, minus `peak_rss_mb` which the
    /// caller reads last: the set-up time and the ops per second of the
    /// best times, and exact percentiles over each class's best times.
    pub fn metrics(&self) -> Vec<Metric> {
        use crate::report::{percentile, CLASSES};
        let epochs = self.rates.len();
        let best = self.pooled();
        let mut out = vec![
            Metric::counted("setup_s", "s", self.best_setup.iter().sum(), epochs),
            Metric::counted("ops_per_s", "1/s", rate(&best), epochs),
        ];
        for (k, class) in CLASSES.iter().enumerate() {
            let mut lat: Vec<f64> = best
                .iter()
                .filter(|o| o.class == Some(k) && o.same_as.is_none())
                .map(|o| o.s * 1e6)
                .collect();
            lat.sort_by(f64::total_cmp);
            for p in [50.0, 99.0] {
                out.push(Metric::counted(
                    format!("{class}_p{p}_us"),
                    "us",
                    percentile(&lat, p),
                    lat.len(),
                ));
            }
        }
        out
    }
}

/// A traced pass's per-layer metrics and what it checked.
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Ops per second of the traced epoch inside the pass.
    pub rate: f64,
    pub digest: u64,
    pub acct: Accounting,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(s: f64, class: Option<usize>, same_as: Option<usize>) -> Op {
        Op {
            s,
            weight: 2,
            class,
            same_as,
        }
    }

    /// Each op and set-up step keeps its best time over the epochs;
    /// repeats of one op pool their tries and give one class sample.
    #[test]
    fn best_times_over_epochs_and_repeats() {
        let epochs = [
            ([0.5, 0.2], [4e-6, 9e-6, 3e-6, 8e-6]),
            ([0.3, 0.4], [6e-6, 7e-6, 5e-6, 9e-6]),
            ([0.6, 0.3], [5e-6, 8e-6, 4e-6, 6e-6]),
        ];
        let mut i = 0;
        let e = EndToEnd::run(f64::MIN_POSITIVE, |_| {
            let (setup, t) = epochs[i];
            i += 1;
            Epoch {
                setup: setup.to_vec(),
                ops: vec![
                    op(t[0], Some(0), None),
                    op(t[1], Some(1), None),
                    op(t[2], Some(0), None),
                    op(t[3], Some(1), Some(1)),
                    op(2e-6, Some(2), None),
                ],
                digest: 7,
            }
        });
        assert!(e.acct.broken.is_empty());
        let m = e.metrics();
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).clone();
        // Set-up: best of each step, 0.3 + 0.2.
        assert!((get("setup_s").value - 0.5).abs() < 1e-12);
        assert_eq!(get("setup_s").samples, Some(3));
        // Ops: 4, 6 (pooled 7, 6), 3, 6 and 2 µs; 10 ops in 21 µs.
        assert!((get("ops_per_s").value - 10.0 / 21e-6).abs() < 1e-3);
        assert!((get("append_p50_us").value - 3.0).abs() < 1e-9);
        assert!((get("append_p99_us").value - 4.0).abs() < 1e-9);
        let read = get("read_p99_us");
        assert!((read.value - 6.0).abs() < 1e-9);
        assert_eq!(read.samples, Some(1));
    }

    /// An epoch whose outputs differ from the first epoch's breaks the run.
    #[test]
    fn differing_epochs_break_the_run() {
        let mut d = 0;
        let e = EndToEnd::run(f64::MIN_POSITIVE, |_| {
            d += 1;
            Epoch {
                setup: vec![0.1],
                ops: vec![op(1e-6, Some(0), None)],
                digest: d,
            }
        });
        assert_eq!(e.acct.broken.len(), 2);
        assert_eq!(e.acct.failed, 4);
    }
}
