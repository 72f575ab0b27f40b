//! Workload-shaped inputs for the per-layer probes: append histories
//! with the parent structure the protocol runners produce.

use am_core::{IncrementalDag, MsgId, Time};
use am_poisson::TokenAuthority;

/// One recorded append: author, parents and time.
pub struct Append {
    pub author: usize,
    pub parents: Vec<MsgId>,
    pub at: Time,
}

/// A history of `len` appends by `n` honest nodes under Poisson grants
/// at rate `lambda`, each referencing every tip of the interval-start
/// snapshot — the view model of `run_dag` and `run_bft` (Δ = 1).
pub fn dag_history(n: usize, lambda: f64, seed: u64, len: usize) -> Vec<Append> {
    let mut auth = TokenAuthority::new(n, lambda, 1.0, &[], seed);
    let mut inc = IncrementalDag::new();
    let (mut boundary, mut interval) = (1usize, 0u64);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let g = auth.next_grant();
        let i = g.time.seconds() as u64;
        if i != interval {
            interval = i;
            boundary = inc.len();
        }
        let parents = inc.tips_of_prefix(boundary);
        inc.on_append(MsgId(inc.len() as u64), &parents, g.time);
        out.push(Append {
            author: g.node.index(),
            parents,
            at: g.time,
        });
    }
    out
}

/// Replays `h` into a fresh [`IncrementalDag`].
pub fn replay(h: &[Append]) -> IncrementalDag {
    let mut inc = IncrementalDag::new();
    for a in h {
        inc.on_append(MsgId(inc.len() as u64), &a.parents, a.at);
    }
    inc
}
