//! The CPU work the workloads run: a xorshift leaf kernel with a fixed
//! iteration count, a binary `join` tree over it, and a serial reference
//! the tree's checksum is compared with.
//!
//! Every size is a committed iteration count. Nothing is calibrated at run
//! time: a calibrated leaf would shrink on a slower host or commit and
//! hide the slowdown the benchmark exists to show.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::probe::OpStamps;

/// Xorshift rounds that take about 1 µs when chained (measured at the
/// seed commit on the 2-CPU reference host, in this binary: 1.88 ns per
/// round). Converts the µs figures of the workload definitions into
/// iteration counts.
pub const ROUNDS_PER_US: u64 = 530;

/// `n` chained xorshift64 rounds from state `x` (which must not be 0).
#[inline]
pub fn rounds(mut x: u64, n: u64) -> u64 {
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Leaf `i` of the tree seeded with `seed`.
#[inline]
fn leaf(seed: u64, i: u32, leaf_rounds: u64) -> u64 {
    rounds((seed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1, leaf_rounds)
}

/// Burns `us` µs worth of rounds — the request handler's body.
pub fn burn_us(us: u64) {
    std::hint::black_box(rounds(us | 1, us * ROUNDS_PER_US));
}

/// One fork-join tree: `leaves` leaves (a power of two) of `leaf_rounds`
/// rounds each, summed with wrapping adds.
#[derive(Clone, Copy)]
pub struct Tree<'a> {
    pub seed: u64,
    pub leaves: u32,
    pub leaf_rounds: u64,
    /// Subtree size (in leaves, a power of two) at which a node stamps the
    /// worker it runs on into `stamps`: 1 stamps every leaf, larger values
    /// keep the stamp off a nanosecond-scale leaf's path.
    pub stamp_span: u32,
    pub stamps: &'a OpStamps,
    /// Counts finished leaves, for a throughput read at an instant that is
    /// not a tree boundary.
    pub leaves_done: Option<&'a AtomicU64>,
}

impl Tree<'_> {
    /// Runs the whole tree with `dws_rt::join`; call inside `block_on`.
    pub fn run(&self) -> u64 {
        self.stamps.visit();
        self.node(0, self.leaves)
    }

    fn node(&self, lo: u32, hi: u32) -> u64 {
        if hi - lo == self.stamp_span {
            self.stamps.visit();
        }
        if hi - lo == 1 {
            let v = leaf(self.seed, lo, self.leaf_rounds);
            if let Some(done) = self.leaves_done {
                done.fetch_add(1, Ordering::Relaxed);
            }
            return v;
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = dws_rt::join(|| self.node(lo, mid), || self.node(mid, hi));
        a.wrapping_add(b)
    }

    /// The checksum `run` must return, computed without the runtime.
    pub fn serial_reference(&self) -> u64 {
        (0..self.leaves).fold(0u64, |acc, i| acc.wrapping_add(leaf(self.seed, i, self.leaf_rounds)))
    }

    /// Joins in one run of the tree.
    pub fn joins(&self) -> u64 {
        u64::from(self.leaves) - 1
    }
}
