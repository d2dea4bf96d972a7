//! The fork-join tax at the `join` layer: one worker runs a 2^20-leaf
//! binary `join` tree of 32-round xorshift leaves (the `forkjoin-fine`
//! shape) and then the same recursion with plain calls, inside one
//! `block_on`. One worker means no thief, so the difference is what
//! `join` itself costs per fork.
//!
//! ```sh
//! cargo run --release --example join_tax
//! ```
//!
//! Runs 21 rounds, drops the first as warm-up, and prints the median of
//! the other 20 as tree time over plain time and as ns per join.

use std::hint::black_box;
use std::time::Instant;

use dws_rt::{join, Policy, Runtime, RuntimeConfig};

const DEPTH: u32 = 20;
const LEAF_ROUNDS: u64 = 32;
const ROUNDS: usize = 21;

fn leaf(i: u64) -> u64 {
    let mut x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    for _ in 0..LEAF_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn tree(lo: u64, hi: u64) -> u64 {
    if hi - lo == 1 {
        return leaf(lo);
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = join(|| tree(lo, mid), || tree(mid, hi));
    a.wrapping_add(b)
}

fn plain(lo: u64, hi: u64) -> u64 {
    if hi - lo == 1 {
        return leaf(lo);
    }
    let mid = lo + (hi - lo) / 2;
    plain(lo, mid).wrapping_add(plain(mid, hi))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

fn main() {
    let leaves = 1u64 << DEPTH;
    let joins = (leaves - 1) as f64;
    let rt = Runtime::new(RuntimeConfig::new(1, Policy::Ws));
    let (ratios, taxes, plain_ms) = rt.block_on(|| {
        let (mut ratios, mut taxes, mut plain_ms) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            let t0 = Instant::now();
            let a = black_box(tree(0, black_box(leaves)));
            let tree_ns = t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            let b = black_box(plain(0, black_box(leaves)));
            let plain_ns = t1.elapsed().as_nanos() as f64;
            assert_eq!(a, b, "tree and plain recursion disagree");
            if round > 0 {
                ratios.push(tree_ns / plain_ns);
                taxes.push((tree_ns - plain_ns) / joins);
                plain_ms.push(plain_ns / 1e6);
            }
        }
        (ratios, taxes, plain_ms)
    });
    println!(
        "one worker, 2^{DEPTH} leaves of {LEAF_ROUNDS} rounds, median of {} rounds: \
         tree/plain {:.3}x, {:.1} ns per join (plain {:.1} ms per tree)",
        ROUNDS - 1,
        median(ratios),
        median(taxes),
        median(plain_ms),
    );
}
