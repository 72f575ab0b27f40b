//! `modelcheck`: E19-shaped am-sched queries with library defaults.
//!
//! A reduced `search` of `QuorumVoteProtocol` for every input vector at
//! n ∈ {4, 5} and for one input vector per orbit at n = 6, the
//! round-robin bivalence witness,
//! `search_disagreement_t_parallel` at (n = 4, t = 1, R = 2) with one
//! worker, as the shipped example runs it, and `check_nonforking`.
//! am-sched's compact search core does all the work, on one thread:
//! `SearchOptions::reduced` sets one worker, so the parallel frontier
//! and the parallel round-lb chunking do not run here. The round-lb and
//! nonforking queries each run [`REPEATS`] times an epoch. Each is one
//! fixed query, so its runs pool their tries for one best time, and its
//! class holds that one sample: its p50 and p99 are equal.
//!
//! `QuorumVoteProtocol` is symmetric in its nodes, so the input vectors
//! that relabel one another (the orbits: the same number of ones) have
//! reachable state spaces of the same size and searches of the same
//! cost — at n = 6, 2132 to 31 363 states and about 0.15 s each. All 64
//! would make an epoch 10 s long, and a run would try each op only twice
//! or three times; the seven orbit representatives, their ones placed by
//! the seed, keep an epoch near 1.5 s.
//!
//! An op is a verification query. The latency classes are the reduced
//! searches, with the witness that is built from them (`append_*`), the
//! round-lb query (`read_*`) and the nonforking query (`snapshot_*`). States per second is a layer
//! metric: a better reduction visits fewer states and can lower it while
//! answering sooner, so queries per second is the end-to-end judge.

use crate::harness::{
    fold, in_shuffled_order, mix, runs, secs, shuffle, Accounting, EndToEnd, Epoch, Laps, Layers,
    Op,
};
use crate::report::Metric;
use crate::trace::Tracer;
use am_sched::{
    check_nonforking, round_robin_witness_fast, search, search_disagreement_t_parallel, Config,
    QuorumVoteProtocol, SearchOptions, SearchReport, Valency, WitnessOutcome,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Node counts searched on every input vector, and the one searched on
/// a representative of each orbit.
const NS_ALL: [usize; 2] = [4, 5];
const N_ORBITS: usize = 6;
/// State budget of every search (E19's full-mode cap).
const MAX_STATES: usize = 400_000;
const WITNESS_N: usize = 4;
const WITNESS_STEPS: usize = 3 * WITNESS_N;
const WITNESS_STATES: usize = 300_000;
/// Round-lb at (n_correct, t, rounds, tie).
const ROUND_LB: (usize, usize, u32, u8) = (4, 1, 2, 0);
/// Nonforking at (n, byzantine, blocks) — E19's part-3 configuration.
const NONFORKING: (usize, usize, usize) = (3, 1, 5);
const REPEATS: usize = 8;

/// E19 values the queries must reproduce: the n = 4 headline search
/// (inputs [0,0,1,1]) and the nonforking search.
const HEADLINE_STATES: usize = 434;
const HEADLINE_TRANSITIONS: u64 = 686;
const NONFORKING_STATES: usize = 2955;

enum Query {
    Search {
        proto: QuorumVoteProtocol,
        init: Config,
        inputs: Vec<u8>,
    },
    RoundLb,
    Witness(QuorumVoteProtocol),
    Nonforking,
}

fn class(q: &Query) -> usize {
    match q {
        Query::Search { .. } | Query::Witness(_) => 0,
        Query::RoundLb => 1,
        Query::Nonforking => 2,
    }
}

/// Every input vector at each n of [`NS_ALL`], then one per orbit at
/// [`N_ORBITS`] with its ones at seeded places.
fn input_vectors(seed: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for n in NS_ALL {
        for mask in 0u32..1 << n {
            out.push((0..n).map(|i| (mask >> i & 1) as u8).collect());
        }
    }
    for ones in 0..=N_ORBITS {
        let mut v: Vec<u8> = (0..N_ORBITS).map(|i| u8::from(i < ones)).collect();
        shuffle(&mut v, mix(seed ^ ones as u64));
        out.push(v);
    }
    out
}

fn search_query(inputs: Vec<u8>) -> Query {
    let n = inputs.len();
    Query::Search {
        proto: QuorumVoteProtocol::new(n, n / 2 + 1, 0),
        init: Config::initial(&inputs),
        inputs,
    }
}

/// The protocols and initial configurations of every query, searches
/// first.
fn queries(seed: u64) -> Vec<Query> {
    let mut out: Vec<Query> = input_vectors(seed).into_iter().map(search_query).collect();
    out.push(Query::Witness(QuorumVoteProtocol::new(
        WITNESS_N,
        WITNESS_N / 2 + 1,
        0,
    )));
    out.push(Query::RoundLb);
    out.push(Query::Nonforking);
    out
}

/// What a query answered, reduced to the facts that are checked and
/// digested.
struct Answer {
    /// (states, transitions, valency as a number) — or the query's own
    /// counts for the non-search queries.
    facts: [u64; 3],
    truncated: bool,
    report: Option<SearchReport>,
}

fn valency_code(v: Valency) -> u64 {
    match v {
        Valency::Zero => 0,
        Valency::One => 1,
        Valency::Bivalent => 2,
        Valency::NoDecision => 3,
    }
}

fn ask(q: &Query) -> Answer {
    match q {
        Query::Search { proto, init, .. } => {
            let r = search(proto, init, &SearchOptions::reduced(MAX_STATES));
            Answer {
                facts: [r.states as u64, r.transitions, valency_code(r.valency)],
                truncated: r.truncated,
                report: Some(r),
            }
        }
        Query::Witness(proto) => {
            let w = round_robin_witness_fast(
                proto,
                WITNESS_STEPS,
                &SearchOptions::reduced(WITNESS_STATES),
            );
            Answer {
                facts: [
                    w.schedule.len() as u64,
                    w.null_steps as u64,
                    u64::from(w.outcome == WitnessOutcome::KeptBivalent),
                ],
                truncated: false,
                report: None,
            }
        }
        Query::RoundLb => {
            let (n, t, r, tie) = ROUND_LB;
            let o = search_disagreement_t_parallel(n, t, r, tie, 1);
            Answer {
                facts: [
                    o.executions as u64,
                    u64::from(o.disagreement.is_some()),
                    u64::from(o.validity_violation.is_some()),
                ],
                truncated: false,
                report: None,
            }
        }
        Query::Nonforking => {
            let (n, byz, blocks) = NONFORKING;
            let r = check_nonforking(n, &[byz], blocks, MAX_STATES);
            Answer {
                facts: [
                    r.states as u64,
                    r.max_finalized as u64,
                    u64::from(r.violation.is_some()),
                ],
                truncated: r.truncated,
                report: None,
            }
        }
    }
}

/// Runs and checks one query: a panic, a truncated search or a drift
/// from the pinned E19 values fails it.
fn checked(q: &Query, acct: &mut Accounting) -> Option<Answer> {
    acct.attempted += 1;
    let a = match catch_unwind(AssertUnwindSafe(|| ask(q))) {
        Ok(a) => a,
        Err(_) => {
            acct.broke(1, "query panicked".into());
            return None;
        }
    };
    let bad = match q {
        _ if a.truncated => Some("truncated".to_string()),
        Query::Search { inputs, .. } if inputs == &[0, 0, 1, 1] => {
            let want = [HEADLINE_STATES as u64, HEADLINE_TRANSITIONS, 2];
            (a.facts != want).then(|| format!("headline {:?} != E19 {want:?}", a.facts))
        }
        Query::Witness(_) if a.facts[2] != 1 || a.facts[0] != WITNESS_STEPS as u64 => {
            Some(format!("witness {:?}", a.facts))
        }
        Query::Nonforking if a.facts[0] != NONFORKING_STATES as u64 || a.facts[2] != 0 => Some(
            format!("nonforking {:?} != E19 {NONFORKING_STATES} states", a.facts),
        ),
        _ => None,
    };
    match bad {
        Some(why) => {
            acct.broke(1, why);
            None
        }
        None => Some(a),
    }
}

fn digest_of(h: u64, a: &Option<Answer>) -> u64 {
    match a {
        Some(a) => a.facts.iter().fold(h, |h, &f| fold(h, f)),
        None => fold(h, u64::MAX),
    }
}

/// The set-up: every query's protocol and initial configuration, then
/// a pre-pass that answers the 32 n = 5 searches once, each a step.
/// am-sched keeps no scratch pools, so the pre-pass warms nothing;
/// building the queries alone takes microseconds, and the pre-pass gives
/// set-up enough real work to time above the clock's and the
/// allocator's jitter.
fn setup(seed: u64, laps: &mut Laps) -> Vec<Query> {
    let (list, pre) = laps.time(|| {
        let pre: Vec<Query> = input_vectors(seed)
            .into_iter()
            .filter(|v| v.len() == 5)
            .map(search_query)
            .collect();
        (queries(seed), pre)
    });
    for q in &pre {
        laps.time(|| black_box(ask(q).facts));
    }
    list
}

pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let mut epoch = 0u64;
    EndToEnd::run(seconds, |acct| {
        epoch += 1;
        let mut laps = Laps::default();
        let list = setup(seed, &mut laps);
        let runs = runs(list.len(), |i| match list[i] {
            Query::RoundLb | Query::Nonforking => REPEATS - 1,
            _ => 0,
        });
        let (ops, answers): (Vec<Op>, Vec<_>) =
            in_shuffled_order(runs.len(), mix(seed ^ epoch << 40), |j| {
                let (i, same_as) = runs[j];
                let q = &list[i];
                let t = Instant::now();
                let a = checked(q, acct);
                let op = Op {
                    s: secs(t),
                    weight: 1,
                    class: Some(class(q)),
                    same_as,
                };
                (op, a)
            })
            .into_iter()
            .unzip();
        // The first runs, in list order, as the traced pass digests them.
        let digest = answers[..list.len()].iter().fold(0, digest_of);
        Epoch {
            setup: laps.0,
            ops,
            digest,
        }
    })
}

pub fn layers(seed: u64, tr: &mut Tracer) -> Layers {
    let mut acct = Accounting::default();
    let list = tr
        .span("harness", "modelcheck.setup", |_| {
            setup(seed, &mut Laps::default())
        })
        .0;
    let mut digest = 0;
    let mut search_s = 0.0f64;
    let mut sums = [0u64; 6];
    let (mut round_lb_s, mut nonforking_s) = (0.0f64, 0.0f64);
    let (_, busy_s) = tr.span("harness", "modelcheck.epoch", |tr| {
        for q in &list {
            let name = match q {
                Query::Search { .. } => "search",
                Query::RoundLb => "search_disagreement_t_parallel",
                Query::Witness(_) => "round_robin_witness_fast",
                Query::Nonforking => "check_nonforking",
            };
            let (a, dt) = tr.span("am-sched", name, |_| checked(q, &mut acct));
            digest = digest_of(digest, &a);
            match q {
                Query::Search { .. } => search_s += dt,
                Query::RoundLb => round_lb_s += dt,
                Query::Nonforking => nonforking_s += dt,
                Query::Witness(_) => {}
            }
            if let Some(r) = a.and_then(|a| a.report) {
                let add = [
                    r.states as u64,
                    r.transitions,
                    r.fingerprint_hits,
                    r.por_sleep_skipped,
                    r.symmetry_folds,
                    r.ample_commits,
                ];
                for (s, x) in sums.iter_mut().zip(add) {
                    *s += x;
                }
            }
        }
    });
    const COUNTS: [&str; 6] = [
        "sched.search.states",
        "sched.search.transitions",
        "sched.search.fingerprint_hits",
        "sched.search.por_sleep_skipped",
        "sched.search.symmetry_folds",
        "sched.search.ample_commits",
    ];
    let mut m = Vec::new();
    for (name, v) in COUNTS.iter().zip(sums) {
        tr.count(name, v);
        m.push(Metric::new(*name, "count", v as f64));
    }
    let [states, _, hits, ..] = sums;
    m.push(Metric::new(
        "sched.search.states_per_s",
        "1/s",
        states as f64 / search_s,
    ));
    m.push(Metric::new(
        "sched.search.revisit_ratio",
        "ratio",
        hits as f64 / (states + hits).max(1) as f64,
    ));
    let per_query_ms = |s: f64| s * 1e3;
    m.push(Metric::new(
        "sched.round_lb.query_ms",
        "ms",
        per_query_ms(round_lb_s),
    ));
    m.push(Metric::new(
        "sched.nonforking.query_ms",
        "ms",
        per_query_ms(nonforking_s),
    ));
    Layers {
        metrics: m,
        rate: list.len() as f64 / busy_s,
        digest,
        acct,
    }
}
