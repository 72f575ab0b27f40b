//! `finality`: E15/E16-shaped BFT trials at n = 12, λ = 0.5, k = 9.
//!
//! The abstract lane runs `run_bft` at t ∈ {0, 1, 2}, which finalize,
//! and at t = 4, past tolerance. Each t runs against all four
//! adversaries. At t = 4 the absent and equivocating adversaries stall to
//! the grant budget — the O(prefix)-per-grant path of
//! `deepest_in_prefix` and `tips_of_prefix`, and where E15/E16 spend
//! their time — while the withholder's and stale miner's votes carry the
//! quorum. The networked lane runs `run_bft_net` over a lossy mesh and
//! through a half/half partition window.
//!
//! An op is a trial. The latency classes are abstract trials that
//! finalized (`append_*`), networked trials on the lossy mesh
//! (`read_*`) and abstract trials that stalled (`snapshot_*`). Which
//! t = 4 trials stall depends on the adversary, so the abstract classes
//! go by outcome. Partition trials count as ops but join no class: there
//! are too few distinct ones for their tail to be steady across seeds.

use crate::harness::{
    fold, in_shuffled_order, mix, runs, secs, Accounting, EndToEnd, Epoch, Laps, Layers, Op,
};
use crate::report::Metric;
use crate::shapes;
use crate::trace::Tracer;
use am_bft::FinalityOracle;
use am_net::{LatencyModel, NetConfig};
use am_protocols::{run_bft, run_bft_net, BftAdversary, BftTrial, Params};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const N: usize = 12;
const K: usize = 9;
const LAMBDA: f64 = 0.5;
const T_FINALIZING: [usize; 3] = [0, 1, 2];
const T_STALLED: usize = 4;
const ADVERSARIES: [BftAdversary; 4] = [
    BftAdversary::Absent,
    BftAdversary::Equivocator,
    BftAdversary::Withholder,
    BftAdversary::StaleMiner,
];
/// Finalizing trials per (t, adversary) per epoch.
const REPS: u64 = 25;
/// Networked trials per epoch on the lossy mesh and through the
/// partition.
const NET_REPS: [u64; 2] = [24, 8];
/// Past-tolerance trials per adversary per epoch.
const STALLED_REPS: u64 = 2;
/// Runs per epoch of each short trial: a finalizing trial (0.2 ms) or
/// one on the lossy mesh (about 4 ms). Runs of one trial pool their
/// tries for one best time. A run has room for about ten epochs, and
/// ten tries left some short trials without a try at full speed when
/// the host was busy; thirty leave none.
const SHORT_RUNS: usize = 3;
/// Warm-up trials per finalizing (t, adversary) in set-up.
const WARM_REPS: u64 = 4;
/// One Δ in network nanoseconds; hops take Δ/20 as in E16.
const DELTA_NS: u64 = 1_000_000_000;

/// Where a trial runs: the abstract view, or over a network profile.
#[derive(Clone, Copy)]
enum Lane {
    Abstract,
    Net(usize),
}

struct Trial {
    p: Params,
    adv: BftAdversary,
    lane: Lane,
}

fn profiles() -> [NetConfig; 2] {
    let base = || NetConfig::builder().latency(LatencyModel::Constant(DELTA_NS / 20));
    [
        base().drop(0.1).build().expect("lossy mesh config"),
        base()
            .partition(0, 4 * DELTA_NS)
            .build()
            .expect("partition config"),
    ]
}

fn trials(seed: u64, reps: u64, net_reps: [u64; 2], stalled_reps: u64) -> Vec<Trial> {
    let mut out = Vec::new();
    let s = |i: u64| mix(seed ^ 0xbf7 ^ i);
    let mut i = 0u64;
    for &t in &T_FINALIZING {
        for adv in ADVERSARIES {
            for _ in 0..reps {
                i += 1;
                out.push(Trial {
                    p: Params::new(N, t, LAMBDA, K, s(i)),
                    adv,
                    lane: Lane::Abstract,
                });
            }
        }
    }
    for (prof, reps) in net_reps.into_iter().enumerate() {
        for _ in 0..reps {
            i += 1;
            out.push(Trial {
                p: Params::new(N, 0, LAMBDA, K, s(i)),
                adv: BftAdversary::Absent,
                lane: Lane::Net(prof),
            });
        }
    }
    for adv in ADVERSARIES {
        for _ in 0..stalled_reps {
            i += 1;
            out.push(Trial {
                p: Params::new(N, T_STALLED, LAMBDA, K, s(i)),
                adv,
                lane: Lane::Abstract,
            });
        }
    }
    out
}

/// The set-up: the trial list, the network configurations, and a
/// warm-up on finalizing and networked trials with their own seeds,
/// which fills the thread-local scratch pools. Each warm-up trial is a
/// step. No stalling trial warms up: one would be a single step of a
/// quarter second, longer than the host's fast stretches, and the first
/// epoch's growth of the pools to a stalled trial's size is dropped by
/// taking each op's best time over the epochs.
fn setup(seed: u64, laps: &mut Laps) -> (Vec<Trial>, [NetConfig; 2]) {
    let (list, nets, warm) = laps.time(|| {
        let list = trials(seed, REPS, NET_REPS, STALLED_REPS);
        let warm = trials(seed ^ 0x3a7e, WARM_REPS, [2, 2], 0);
        (list, profiles(), warm)
    });
    for w in &warm {
        laps.time(|| black_box(run(w, &nets)));
    }
    (list, nets)
}

/// One trial, with its message count on the networked lane.
fn run(tr: &Trial, nets: &[NetConfig; 2]) -> (BftTrial, u64) {
    match tr.lane {
        Lane::Net(i) => {
            let (trial, stats) = run_bft_net(&tr.p, tr.adv, &nets[i]);
            (trial, stats.totals().sent)
        }
        Lane::Abstract => (run_bft(&tr.p, tr.adv), 0),
    }
}

/// Runs one trial and checks it: a panic or a conflicting certificate
/// fails the op. A stall is an outcome, not a failure.
fn checked(tr: &Trial, nets: &[NetConfig; 2], acct: &mut Accounting) -> Option<(BftTrial, u64)> {
    acct.attempted += 1;
    match catch_unwind(AssertUnwindSafe(|| run(tr, nets))) {
        Ok((t, _)) if t.conflict => {
            acct.broke(1, format!("seed {:#x}: conflicting certificate", tr.p.seed));
            None
        }
        Ok(out) => Some(out),
        Err(_) => {
            acct.broke(1, format!("seed {:#x}: trial panicked", tr.p.seed));
            None
        }
    }
}

fn digest_of(h: u64, out: &Option<(BftTrial, u64)>) -> u64 {
    match out {
        Some((t, sent)) => fold(
            fold(fold(h, t.finalized_digest), t.finalized_height as u64),
            (t.total_appends as u64) << 32 ^ sent,
        ),
        None => fold(h, u64::MAX),
    }
}

/// Latency class of a trial: 0 finalized, 1 lossy networked, 2
/// stalled, `None` for a partition trial (a failed abstract trial
/// counts as finalized).
fn class(lane: Lane, out: &Option<(BftTrial, u64)>) -> Option<usize> {
    match (lane, out) {
        (Lane::Net(0), _) => Some(1),
        (Lane::Net(_), _) => None,
        (_, Some((t, _))) if !t.finality => Some(2),
        _ => Some(0),
    }
}

/// Whether a trial is short enough to run [`SHORT_RUNS`] times an epoch.
fn short(t: &Trial) -> bool {
    match t.lane {
        Lane::Abstract => t.p.t < T_STALLED,
        Lane::Net(prof) => prof == 0,
    }
}

pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let mut epoch = 0u64;
    EndToEnd::run(seconds, |acct| {
        epoch += 1;
        let mut laps = Laps::default();
        let (list, nets) = setup(seed, &mut laps);
        let runs = runs(
            list.len(),
            |i| {
                if short(&list[i]) {
                    SHORT_RUNS - 1
                } else {
                    0
                }
            },
        );
        let (ops, outs): (Vec<Op>, Vec<_>) =
            in_shuffled_order(runs.len(), mix(seed ^ epoch << 40), |j| {
                let (i, same_as) = runs[j];
                let tr = &list[i];
                let t = Instant::now();
                let out = checked(tr, &nets, acct);
                let op = Op {
                    s: secs(t),
                    weight: 1,
                    class: class(tr.lane, &out),
                    same_as,
                };
                (op, out)
            })
            .into_iter()
            .unzip();
        // The first runs, in list order, as the traced pass digests them.
        let digest = outs[..list.len()].iter().fold(0, digest_of);
        Epoch {
            setup: laps.0,
            ops,
            digest,
        }
    })
}

pub fn layers(seed: u64, tr: &mut Tracer) -> Layers {
    let mut acct = Accounting::default();
    let (list, nets) = tr
        .span("harness", "finality.setup", |_| {
            setup(seed, &mut Laps::default())
        })
        .0;
    let mut digest = 0;
    // [finalizing, stalled] seconds and appends of abstract trials, by
    // outcome; networked seconds, trials and messages.
    let (mut bft_s, mut bft_appends, mut bft_trials) = ([0.0f64; 2], [0u64; 2], [0u64; 2]);
    let (mut net_s, mut net_trials, mut net_msgs) = (0.0f64, 0u64, 0u64);
    let mut k_len = 0usize;
    let mut stalled_len = 0usize;
    let (_, busy_s) = tr.span("harness", "finality.epoch", |tr| {
        for t in &list {
            let name = match t.lane {
                Lane::Net(_) => "run_bft_net",
                Lane::Abstract => "run_bft",
            };
            let (out, dt) = tr.span("am-protocols", name, |_| checked(t, &nets, &mut acct));
            digest = digest_of(digest, &out);
            let Some((trial, sent)) = out else { continue };
            if let Lane::Net(_) = t.lane {
                net_s += dt;
                net_trials += 1;
                net_msgs += sent;
                continue;
            }
            let i = usize::from(!trial.finality);
            bft_s[i] += dt;
            bft_appends[i] += trial.total_appends as u64;
            bft_trials[i] += 1;
            if trial.finality {
                k_len = k_len.max(trial.total_appends);
            } else {
                stalled_len = stalled_len.max(trial.total_appends);
            }
        }
    });
    tr.count("protocols.run_bft.appends", bft_appends[0] + bft_appends[1]);
    tr.count("net.msgs_sent.bft_net", net_msgs);
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s / n as f64 };
    let mut m = vec![
        Metric::new(
            "protocols.run_bft.trials_finalized",
            "count",
            bft_trials[0] as f64,
        ),
        Metric::new(
            "protocols.run_bft.trials_stalled",
            "count",
            bft_trials[1] as f64,
        ),
        Metric::new(
            "protocols.run_bft.appends",
            "count",
            (bft_appends[0] + bft_appends[1]) as f64,
        ),
        Metric::new(
            "protocols.run_bft.ns_per_append.finalizing",
            "ns",
            per(bft_s[0], bft_appends[0]) * 1e9,
        ),
        Metric::new(
            "protocols.run_bft.ns_per_append.stalled",
            "ns",
            per(bft_s[1], bft_appends[1]) * 1e9,
        ),
        Metric::counted(
            "protocols.run_bft_net.trial_ms",
            "ms",
            per(net_s, net_trials) * 1e3,
            net_trials as usize,
        ),
        Metric::new("net.msgs_sent.bft_net", "count", net_msgs as f64),
        Metric::new("net.ns_per_msg.bft_net", "ns", per(net_s, net_msgs) * 1e9),
    ];
    m.extend(probes(seed, k_len.max(1), stalled_len.max(1), tr));
    Layers {
        metrics: m,
        rate: list.len() as f64 / busy_s,
        digest,
        acct,
    }
}

/// Prefix queries per history length, and blocks fed to the oracle.
const PREFIX_CALLS_K: u64 = 100_000;
const PREFIX_CALLS_STALLED: u64 = 1_000;
const OBSERVE_BLOCKS: usize = 4_000;

/// Prefix queries at the length of the longest finalizing trial and of
/// the longest stalled trial, and the oracle over an n = 12 stream.
fn probes(seed: u64, k_len: usize, stalled_len: usize, tr: &mut Tracer) -> Vec<Metric> {
    let mut m = Vec::new();
    for (tag, len, calls) in [
        ("k", k_len, PREFIX_CALLS_K),
        ("stalled", stalled_len, PREFIX_CALLS_STALLED),
    ] {
        let inc = shapes::replay(&shapes::dag_history(N, LAMBDA, mix(seed ^ 0xdee9), len));
        let prefix = inc.len();
        let (_, deep_s) = tr.span("am-core", "IncrementalDag::deepest_in_prefix", |_| {
            for _ in 0..calls {
                black_box(inc.deepest_in_prefix(black_box(prefix)));
            }
        });
        let (_, tips_s) = tr.span("am-core", "IncrementalDag::tips_of_prefix", |_| {
            for _ in 0..calls {
                black_box(inc.tips_of_prefix(black_box(prefix)));
            }
        });
        let ns = |s: f64| s / calls as f64 * 1e9;
        m.push(Metric::counted(
            format!("core.incremental.deepest_in_prefix_ns.{tag}"),
            "ns",
            ns(deep_s),
            prefix,
        ));
        m.push(Metric::counted(
            format!("core.incremental.tips_of_prefix_ns.{tag}"),
            "ns",
            ns(tips_s),
            prefix,
        ));
    }

    let stream = shapes::dag_history(N, LAMBDA, mix(seed ^ 0x0b5e), OBSERVE_BLOCKS);
    let mut oracle = FinalityOracle::new(N);
    let (_, obs_s) = tr.span("am-bft", "FinalityOracle::observe", |_| {
        for (i, a) in stream.iter().enumerate() {
            oracle.observe(am_core::MsgId(i as u64 + 1), a.author, &a.parents);
        }
    });
    m.push(Metric::new(
        "bft.observe_ns",
        "ns",
        obs_s / OBSERVE_BLOCKS as f64 * 1e9,
    ));
    m.push(Metric::new(
        "bft.blocks_observed",
        "count",
        oracle.blocks_observed() as f64,
    ));
    m
}
