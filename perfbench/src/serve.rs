//! `serve`: an am-node `Cluster` of 4 nodes on an ideal mesh, driven
//! closed-loop by one thread with one request outstanding.
//!
//! Set-up archives tens of thousands of blocks, because quorum-read cost
//! grows with archive height. The request mix is loadgen's: 10 %
//! `Append` with authors drawn zipf(1.0) from 64; of the reads, 1/12
//! quorum `Read`, 6/12 `Tip`, 2/12 `SnapshotAt`, 1/12 `Linearize`, 1/12
//! `FinalizedHeight` and 1/12 `SnapshotAtFinal`. `Cluster::handle` is
//! called directly: through `NodeRuntime`'s thread handoff, identical
//! runs differ by the scheduler, not by the program.
//!
//! An op is a request. The latency classes are `Append`, quorum `Read`,
//! and `SnapshotAt` with `SnapshotAtFinal`. The cheap lookups get no
//! percentile (their latency is timer resolution) but count as ops.

use crate::harness::{fold, mix, secs, Accounting, EndToEnd, Epoch, Laps, Layers, Op};
use crate::report::Metric;
use crate::trace::Tracer;
use am_mp::MpSystem;
use am_net::{LatencyModel, NetConfig};
use am_node::api::{
    AppendReq, FinalizedHeightReq, LinearizeReq, ReadReq, SnapshotAtFinalReq, SnapshotAtReq, TipReq,
};
use am_node::{Archive, Cluster, ClusterConfig, Mempool, MempoolConfig, Request, Response};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 4;
/// Blocks archived in set-up, in timed steps of [`PREFILL_STEP`].
const PREFILL: usize = 40_000;
const PREFILL_STEP: usize = 1_000;
/// Requests per epoch.
const REQUESTS: usize = 150_000;
const AUTHORS: usize = 64;
const READ_MIX: f64 = 0.9;

/// Cumulative zipf(1.0) over the author pool, sampled by binary search.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new() -> Zipf {
        let w: Vec<f64> = (1..=AUTHORS).map(|k| 1.0 / k as f64).collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        Zipf(
            w.iter()
                .map(|x| {
                    acc += x / total;
                    acc
                })
                .collect(),
        )
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> u64 {
        let u: f64 = rng.gen();
        self.0.partition_point(|&c| c < u).min(AUTHORS - 1) as u64
    }
}

fn append(rng: &mut ChaCha8Rng, zipf: &Zipf) -> Request {
    Request::Append(AppendReq {
        author: zipf.sample(rng),
        value: if rng.gen::<bool>() { 1 } else { -1 },
    })
}

/// The seeded request stream: `(prefill appends, measured requests)`.
fn streams(seed: u64) -> (Vec<Request>, Vec<Request>) {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed ^ 0x5e7e));
    let zipf = Zipf::new();
    let prefill = (0..PREFILL).map(|_| append(&mut rng, &zipf)).collect();
    let reqs = (0..REQUESTS)
        .map(|_| {
            if rng.gen::<f64>() >= READ_MIX {
                return append(&mut rng, &zipf);
            }
            let node = rng.gen_range(0..NODES) as u64;
            match rng.gen_range(0..12u32) {
                0 => Request::Read(ReadReq { node }),
                1..=6 => Request::Tip(TipReq { node }),
                // loadgen's range; the server clamps it to the archive
                // height, so most snapshots are at the tip.
                7..=8 => Request::SnapshotAt(SnapshotAtReq {
                    node,
                    height: rng.gen_range(0..1_000_000),
                }),
                9 => Request::Linearize(LinearizeReq { node }),
                10 => Request::FinalizedHeight(FinalizedHeightReq { node }),
                _ => Request::SnapshotAtFinal(SnapshotAtFinalReq { node }),
            }
        })
        .collect();
    (prefill, reqs)
}

/// Latency class of a request; `None` for the cheap lookups.
fn class(req: &Request) -> Option<usize> {
    match req {
        Request::Append(_) => Some(0),
        Request::Read(_) => Some(1),
        Request::SnapshotAt(_) | Request::SnapshotAtFinal(_) => Some(2),
        _ => None,
    }
}

/// Acknowledged append contents, in acknowledgement order.
type Acked = Vec<u64>;

fn answer(resp: &Response, acked: &mut Acked, acct: &mut Accounting) {
    match resp {
        Response::Appended(a) => acked.push(a.content),
        Response::Error(e) => acct.broke(1, format!("error response {e:?}")),
        _ => {}
    }
}

/// The set-up: the cluster, the archive prefill and the request stream.
fn setup(seed: u64, laps: &mut Laps, acct: &mut Accounting) -> (Cluster, Vec<Request>, Acked) {
    let ((prefill, reqs), mut c) = laps.time(|| {
        (
            streams(seed),
            Cluster::new(ClusterConfig::ideal(NODES, seed)),
        )
    });
    let mut acked = Vec::with_capacity(PREFILL + REQUESTS / 8);
    let mut prefill_acct = Accounting::default();
    for step in prefill.chunks(PREFILL_STEP) {
        laps.time(|| {
            for r in step {
                answer(&c.handle(r), &mut acked, &mut prefill_acct);
            }
        });
    }
    if prefill_acct.failed > 0 {
        acct.broke(0, format!("{} prefill appends failed", prefill_acct.failed));
    }
    (c, reqs, acked)
}

/// After the epoch: converge, then every node's linearization digest
/// must agree and every acknowledged append must be archived on every
/// node. Returns the output digest.
fn check(c: &mut Cluster, acked: &Acked, acct: &mut Accounting) -> u64 {
    c.converge();
    let d0 = c.archive(0).linearization_digest();
    let mut digest = fold(d0, c.archive(0).height() as u64);
    for node in 0..c.n() {
        let ar = c.archive(node);
        if ar.linearization_digest() != d0 {
            acct.broke(0, format!("node {node} linearization digest differs"));
        }
        let held: HashSet<u64> = ar.snapshot().iter().map(|m| m.content).collect();
        let missing = acked.iter().filter(|x| !held.contains(x)).count();
        if missing > 0 {
            acct.broke(
                0,
                format!("node {node} lacks {missing} acknowledged appends"),
            );
        }
        digest = fold(digest, ar.finalized_digest());
    }
    digest
}

pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    EndToEnd::run(seconds, |acct| {
        let mut laps = Laps::default();
        let (mut c, reqs, mut acked) = setup(seed, &mut laps, acct);
        let mut ops = Vec::with_capacity(reqs.len());
        for r in &reqs {
            let t = Instant::now();
            let resp = c.handle(r);
            ops.push(Op {
                s: secs(t),
                weight: 1,
                class: class(r),
                same_as: None,
            });
            answer(&resp, &mut acked, acct);
        }
        acct.attempted += reqs.len() as u64;
        Epoch {
            setup: laps.0,
            ops,
            digest: check(&mut c, &acked, acct),
        }
    })
}

fn sent(c: &mut Cluster) -> u64 {
    match c.handle(&Request::Stats) {
        Response::Stats(s) => s.sent,
        other => panic!("Stats answered {other:?}"),
    }
}

pub fn layers(seed: u64, tr: &mut Tracer) -> Layers {
    let mut acct = Accounting::default();
    let (mut c, reqs, mut acked) = tr
        .span("harness", "serve.setup", |_| {
            setup(seed, &mut Laps::default(), &mut acct)
        })
        .0;
    let errors_before = acct.failed;
    // Appends and reads: calls and messages sent; lookups: calls and time.
    let (mut msgs, mut calls) = ([0u64; 2], [0u64; 2]);
    let (mut lookup_s, mut lookups) = (0.0f64, 0u64);
    let (_, busy_s) = tr.span("harness", "serve.epoch", |tr| {
        for r in &reqs {
            // Classes 0 and 1: appends and quorum reads.
            let k = class(r).filter(|&k| k < 2);
            let before = if k.is_some() { sent(&mut c) } else { 0 };
            let (resp, dt) = tr.span("am-node", "Cluster::handle", |_| c.handle(r));
            if let Some(k) = k {
                msgs[k] += sent(&mut c) - before;
                calls[k] += 1;
            } else if class(r).is_none() {
                lookup_s += dt;
                lookups += 1;
            }
            answer(&resp, &mut acked, &mut acct);
        }
    });
    acct.attempted += reqs.len() as u64;
    let errors = acct.failed - errors_before;
    tr.count("net.msgs.append", msgs[0]);
    tr.count("net.msgs.read", msgs[1]);
    let digest = tr
        .span("harness", "serve.check", |_| {
            check(&mut c, &acked, &mut acct)
        })
        .0;
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut m = vec![
        Metric::counted(
            "net.msgs_per_append",
            "msg/op",
            per(msgs[0], calls[0]),
            calls[0] as usize,
        ),
        Metric::counted(
            "net.msgs_per_read",
            "msg/op",
            per(msgs[1], calls[1]),
            calls[1] as usize,
        ),
        Metric::counted(
            "node.handle_ns.lookup",
            "ns",
            lookup_s / lookups.max(1) as f64 * 1e9,
            lookups as usize,
        ),
        Metric::new("node.errors", "count", errors as f64),
    ];
    drop(c);
    m.extend(probes(seed, tr));
    Layers {
        metrics: m,
        rate: reqs.len() as f64 / busy_s,
        digest,
        acct,
    }
}

const MP_APPENDS: u64 = 4_000;
const MP_READS: u64 = 1_000;
const MEMPOOL_BATCHES: u64 = 20_000;
const MEMPOOL_BATCH: u64 = 16;
const SYNC_CALLS: usize = 2_000;
const SNAPSHOT_CALLS: u64 = 100_000;

/// am-mp, the mempool and the archive at the serve shape: the ABD
/// system on the cluster's network config at the set-up archive height.
fn probes(seed: u64, tr: &mut Tracer) -> Vec<Metric> {
    let net = NetConfig::ideal(LatencyModel::Constant(0)).build_net(NODES, seed);
    let mut sys = MpSystem::with_transport(net, &[], seed);
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed ^ 0x9b0e));
    for i in 0..PREFILL {
        sys.append(i % NODES, 1).expect("ideal-mesh append");
    }
    let (_, append_s) = tr.span("am-mp", "MpSystem::append", |_| {
        for i in 0..MP_APPENDS {
            black_box(
                sys.append(i as usize % NODES, -1)
                    .expect("ideal-mesh append"),
            );
        }
    });
    let (_, read_s) = tr.span("am-mp", "MpSystem::read", |_| {
        for _ in 0..MP_READS {
            black_box(sys.read(rng.gen_range(0..NODES)).expect("ideal-mesh read"));
        }
    });

    let zipf = Zipf::new();
    let authors: Vec<u64> = (0..MEMPOOL_BATCH * 64)
        .map(|_| zipf.sample(&mut rng))
        .collect();
    let mut pool = Mempool::new(MempoolConfig::default());
    let (mut submit_s, mut take_s) = (0.0f64, 0.0f64);
    tr.span("am-node", "Mempool", |_| {
        for b in 0..MEMPOOL_BATCHES {
            let batch = &authors[(b % 64 * MEMPOOL_BATCH) as usize..][..MEMPOOL_BATCH as usize];
            let t = Instant::now();
            for &a in batch {
                black_box(pool.submit(a, 1).expect("mempool has room"));
            }
            submit_s += secs(t);
            let t = Instant::now();
            black_box(pool.take_batch(usize::MAX));
            take_s += secs(t);
        }
    });

    let view = sys.view(0).clone();
    let h = view.len();
    let prefixes: Vec<_> = (h - SYNC_CALLS..=h).map(|k| view.prefix(k)).collect();
    let mut ar = Archive::new();
    ar.sync_from(&prefixes[0]);
    let (_, sync_s) = tr.span("am-node", "Archive::sync_from", |_| {
        for p in &prefixes[1..] {
            black_box(ar.sync_from(p));
        }
    });
    // Heights as the serve stream draws them, clamped as the server does.
    let heights: Vec<usize> = (0..SNAPSHOT_CALLS)
        .map(|_| rng.gen_range(0..1_000_000usize).min(h))
        .collect();
    let (_, snap_s) = tr.span("am-node", "Archive::snapshot_at", |_| {
        for &k in &heights {
            black_box(ar.snapshot_at(k));
        }
    });
    vec![
        Metric::counted("mp.append_us", "us", append_s / MP_APPENDS as f64 * 1e6, h),
        Metric::counted("mp.read_us", "us", read_s / MP_READS as f64 * 1e6, h),
        Metric::new(
            "node.mempool.submit_ns",
            "ns",
            submit_s / (MEMPOOL_BATCHES * MEMPOOL_BATCH) as f64 * 1e9,
        ),
        Metric::new(
            "node.mempool.take_batch_ns",
            "ns",
            take_s / MEMPOOL_BATCHES as f64 * 1e9,
        ),
        Metric::counted(
            "node.archive.sync_from_us",
            "us",
            sync_s / SYNC_CALLS as f64 * 1e6,
            h,
        ),
        Metric::counted(
            "node.archive.snapshot_at_us",
            "us",
            snap_s / SNAPSHOT_CALLS as f64 * 1e6,
            h,
        ),
    ]
}
