//! `sweep`: an E7/E8-shaped grid through `SweepRunner::measure`.
//!
//! Every DAG rule against every DAG adversary, the interval tie-breaker
//! against randomized chain tie-breaking (E8) and the timestamp
//! baseline, at n ∈ {16, 48}, t = n/4, λ = 1.6, k = 15, with fixed
//! budgets so the trial count is exact. All the work
//! is in am-poisson, am-core, am-protocols and am-stats; none is in
//! am-bft, am-net, am-node or am-sched.
//!
//! An op is a trial. The latency classes are one `measure` call on a
//! grid point: DAG points (`append_*`), chain points (`read_*`) and
//! timestamp points (`snapshot_*`).

use crate::harness::{
    fold, in_shuffled_order, mix, secs, Accounting, EndToEnd, Epoch, Laps, Layers, Op,
};
use crate::report::Metric;
use crate::shapes;
use crate::trace::Tracer;
use am_core::{ConeCoverTracker, MsgId};
use am_poisson::TokenAuthority;
use am_protocols::{
    run_chain, run_dag, run_timestamp, trial_seed, ChainAdversary, DagAdversary, DagRule, Params,
    SweepConfig, SweepRunner, TieBreak, TrialKind,
};
use std::hint::black_box;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The n of each point of a pass's grid, per kind. n = 48 comes twice
/// (on two seeds), so that in a class holding one kind at both sizes
/// the median falls inside the larger group rather than in the gap
/// between the two sizes' latencies, where it would be the slowest
/// sample of the faster group.
const NS: [usize; 3] = [16, 48, 48];
const LAMBDA: f64 = 1.6;
const K: usize = 15;
/// Trials per grid point: one engine batch, so a pass yields many
/// point-latency samples.
const BUDGET: u64 = 32;
/// Grid passes per epoch, each with its own point seeds.
const PASSES: u64 = 60;
/// Warm-up passes in set-up (their own seeds, not the measured ones).
const WARM_PASSES: u64 = 9;
const WARM_SALT: u64 = 0x5eed_5a7e;

fn kinds() -> Vec<TrialKind> {
    let mut k = Vec::new();
    for rule in [DagRule::LongestChain, DagRule::Ghost, DagRule::Pivot] {
        for adv in [
            DagAdversary::Absent,
            DagAdversary::Dissenter,
            DagAdversary::WithholdBurst,
        ] {
            k.push(TrialKind::Dag(rule, adv));
        }
    }
    k.push(TrialKind::Chain(
        TieBreak::Randomized,
        ChainAdversary::TieBreaker,
    ));
    k.push(TrialKind::Timestamp);
    k
}

/// Latency class of a point: 0 DAG, 1 chain, 2 timestamp.
fn class(kind: TrialKind) -> usize {
    match kind {
        TrialKind::Dag(..) => 0,
        TrialKind::Chain(..) => 1,
        _ => 2,
    }
}

struct Point {
    key: String,
    p: Params,
    kind: TrialKind,
}

fn grid(seed: u64, passes: Range<u64>) -> Vec<Point> {
    let kinds = kinds();
    let mut out = Vec::new();
    for pass in passes {
        for (ni, &n) in NS.iter().enumerate() {
            for (ki, &kind) in kinds.iter().enumerate() {
                let s = mix(seed ^ (pass << 16) ^ ((ni as u64) << 8) ^ ki as u64);
                out.push(Point {
                    key: format!("pass{pass}/n{n}.{ni}/{}", kind.label()),
                    p: Params::new(n, n / 4, LAMBDA, K, s),
                    kind,
                });
            }
        }
    }
    out
}

/// The set-up: the point list and a warm-up that fills the protocols'
/// thread-local scratch pools, each warm-up point a step of its own.
fn setup(seed: u64, laps: &mut Laps) -> (Vec<Point>, SweepRunner<'static>) {
    let (points, warm) = laps.time(|| {
        (
            grid(seed, 0..PASSES),
            grid(seed ^ WARM_SALT, 0..WARM_PASSES),
        )
    });
    let runner = SweepRunner::new(SweepConfig::fixed());
    for pt in warm {
        laps.time(|| black_box(runner.measure(&pt.key, &pt.p, pt.kind, BUDGET)));
    }
    (points, runner)
}

/// One point through the engine; `None` (and its trials failed) if it
/// panicked or did not run its exact budget.
fn measure(runner: &SweepRunner<'_>, pt: &Point, acct: &mut Accounting) -> Option<u64> {
    acct.attempted += BUDGET;
    match catch_unwind(AssertUnwindSafe(|| {
        runner.measure(&pt.key, &pt.p, pt.kind, BUDGET)
    })) {
        Ok(r) if r.trials_used() == BUDGET => Some(r.tally.hits),
        Ok(r) => {
            acct.broke(
                BUDGET,
                format!("{}: ran {} trials", pt.key, r.trials_used()),
            );
            None
        }
        Err(_) => {
            acct.broke(BUDGET, format!("{}: a trial panicked", pt.key));
            None
        }
    }
}

/// One trial by calling the protocol's runner directly.
fn direct(kind: TrialKind, p: &Params) -> bool {
    match kind {
        TrialKind::Dag(rule, adv) => !run_dag(p, rule, adv).validity,
        TrialKind::Chain(tie, adv) => !run_chain(p, tie, adv).validity,
        TrialKind::Timestamp => !run_timestamp(p).validity,
        TrialKind::Bft(_) => unreachable!("the sweep grid has no BFT points"),
    }
}

fn direct_hits(pt: &Point) -> u64 {
    (0..BUDGET)
        .filter(|&i| direct(pt.kind, &pt.p.with_seed(trial_seed(pt.p.seed, i))))
        .count() as u64
}

/// Compares engine tallies with direct calls on the same indices.
fn check_direct(pt: &Point, engine: Option<u64>, hits: u64, acct: &mut Accounting) {
    if let Some(e) = engine {
        if e != hits {
            acct.broke(
                BUDGET,
                format!("{}: engine {e} hits, direct {hits}", pt.key),
            );
        }
    }
}

pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let mut first: Vec<Option<u64>> = Vec::new();
    let mut epoch = 0u64;
    let mut e = EndToEnd::run(seconds, |acct| {
        epoch += 1;
        let mut laps = Laps::default();
        let (points, runner) = setup(seed, &mut laps);
        let (ops, hits): (Vec<Op>, Vec<Option<u64>>) =
            in_shuffled_order(points.len(), mix(seed ^ epoch << 40), |i| {
                let pt = &points[i];
                let t = Instant::now();
                let hits = measure(&runner, pt, acct);
                let op = Op {
                    s: secs(t),
                    weight: BUDGET,
                    class: Some(class(pt.kind)),
                    same_as: None,
                };
                (op, hits)
            })
            .into_iter()
            .unzip();
        let digest = hits.iter().fold(0, |h, x| fold(h, x.unwrap_or(u64::MAX)));
        if first.is_empty() {
            first = hits;
        }
        Epoch {
            setup: laps.0,
            ops,
            digest,
        }
    });
    // The first pass of the grid, again by direct calls.
    let n0 = NS.len() * kinds().len();
    for (pt, engine) in grid(seed, 0..1).iter().zip(&first[..n0]) {
        check_direct(pt, *engine, direct_hits(pt), &mut e.acct);
    }
    e
}

/// A traced epoch, every point checked against direct calls, and the
/// am-poisson and am-core probes at the sweep's shape.
pub fn layers(seed: u64, tr: &mut Tracer) -> Layers {
    let mut acct = Accounting::default();
    let (points, runner) = tr
        .span("harness", "sweep.setup", |_| {
            setup(seed, &mut Laps::default())
        })
        .0;
    // Each point runs through the engine and then again by direct calls
    // on the same indices, back to back, so both see the same cache state.
    const RUNNERS: [&str; 3] = ["run_dag", "run_chain", "run_timestamp"];
    let mut measure_s = 0.0;
    let mut direct_s = [0.0f64; 3];
    let mut direct_n = [0u64; 3];
    let mut digest = 0;
    tr.span("harness", "sweep.epoch", |tr| {
        for pt in &points {
            let (engine, dt) = tr.span("am-protocols", "SweepRunner::measure", |_| {
                measure(&runner, pt, &mut acct)
            });
            measure_s += dt;
            let c = class(pt.kind);
            let (hits, dt) = tr.span("am-protocols", RUNNERS[c], |_| direct_hits(pt));
            direct_s[c] += dt;
            direct_n[c] += BUDGET;
            check_direct(pt, engine, hits, &mut acct);
            digest = fold(digest, engine.unwrap_or(u64::MAX));
        }
    });
    let trials = BUDGET * points.len() as u64;
    tr.count("protocols.sweep.trials", trials);

    let mut m = vec![
        Metric::new("protocols.sweep.trials", "count", trials as f64),
        Metric::new("protocols.sweep.measure_s", "s", measure_s),
        Metric::new(
            "protocols.sweep.engine_share",
            "ratio",
            1.0 - direct_s.iter().sum::<f64>() / measure_s,
        ),
    ];
    for c in 0..3 {
        m.push(Metric::counted(
            format!("protocols.{}.trial_us", RUNNERS[c]),
            "us",
            direct_s[c] / direct_n[c] as f64 * 1e6,
            direct_n[c] as usize,
        ));
    }
    m.extend(probes(seed, tr));
    Layers {
        metrics: m,
        rate: trials as f64 / measure_s,
        digest,
        acct,
    }
}

/// Histories per core probe and appends per history: about one sweep
/// trial's worth at n = 48.
const PROBE_HISTORIES: u64 = 200;
const PROBE_LEN: usize = 96;
const PROBE_GRANTS: u64 = 400_000;

fn probes(seed: u64, tr: &mut Tracer) -> Vec<Metric> {
    let n = NS[2];
    let p = Params::new(n, n / 4, LAMBDA, K, seed);
    let mut auth = TokenAuthority::new(n, LAMBDA, p.delta, &p.byz_nodes(), p.seed);
    let (_, grant_s) = tr.span("am-poisson", "TokenAuthority::next_grant", |_| {
        for _ in 0..PROBE_GRANTS {
            black_box(auth.next_grant());
        }
    });

    let histories: Vec<_> = (0..PROBE_HISTORIES)
        .map(|i| shapes::dag_history(n, LAMBDA, mix(seed ^ 0xc0e ^ i), PROBE_LEN))
        .collect();
    let appends = (PROBE_HISTORIES as usize * PROBE_LEN) as f64;
    let (_, inc_s) = tr.span("am-core", "IncrementalDag::on_append", |_| {
        for h in &histories {
            black_box(shapes::replay(h));
        }
    });
    let (_, cone_s) = tr.span("am-core", "ConeCoverTracker::on_append", |_| {
        for h in &histories {
            let mut t = ConeCoverTracker::new();
            for (i, a) in h.iter().enumerate() {
                t.on_append(MsgId(i as u64 + 1), &a.parents, true);
            }
            black_box(t.covered());
        }
    });
    vec![
        Metric::new(
            "poisson.next_grant_ns",
            "ns",
            grant_s / PROBE_GRANTS as f64 * 1e9,
        ),
        Metric::new("core.incremental.on_append_ns", "ns", inc_s / appends * 1e9),
        Metric::new("core.cone_cover.on_append_ns", "ns", cone_s / appends * 1e9),
    ]
}
