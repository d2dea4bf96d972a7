//! Order statistics. Every reported timing is a median or a named
//! percentile; nothing here averages.

/// The `q`-quantile (0..=1) of samples in any order, linearly interpolated.
/// 0 for no samples: a per-layer metric on a workload that bypasses the
/// layer reads 0, next to a call count that is also 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of samples in any order.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Blocks a headline percentile is the median of.
pub const BLOCKS: usize = 5;

/// The `q`-quantile made steady: the samples, in the order they were
/// taken, are cut into [`BLOCKS`] consecutive blocks, the quantile is taken
/// in each, and the median of those is reported. One host hiccup then
/// moves one block, not the result. Falls back to the plain quantile when
/// a block would hold fewer than five samples beyond the quantile.
pub fn steady_quantile(in_order: &[f64], q: f64) -> f64 {
    let per_block = in_order.len() / BLOCKS;
    if (per_block as f64) * (1.0 - q).min(q) < 5.0 {
        return quantile(in_order, q);
    }
    let per: Vec<f64> = in_order.chunks_exact(per_block).map(|b| quantile(b, q)).collect();
    median(&per)
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)` (the
/// default exclusive method) gives them — the spread the acceptance check
/// is defined with. Needs at least two values.
pub fn python_quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two values");
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, ld) = (4usize, d.len());
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median (`python_quartiles`).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = python_quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// min / median / coefficient of variation over the repetitions of one
/// direct-call probe.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub min: f64,
    pub median: f64,
    pub cov: f64,
}

impl Reps {
    /// A figure that is counted, not sampled.
    pub fn exact(value: f64) -> Reps {
        Reps { min: value, median: value, cov: 0.0 }
    }

    pub fn of(reps: &[f64]) -> Reps {
        let n = reps.len() as f64;
        let mean = reps.iter().sum::<f64>() / n;
        let var = reps.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Reps {
            min: reps.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(reps),
            cov: if mean == 0.0 { 0.0 } else { var.sqrt() / mean },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(python_quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_quantile_ignores_one_bad_block() {
        let mut v = vec![1.0; 1000];
        for x in &mut v[..150] {
            *x = 100.0; // a hiccup confined to the first block
        }
        assert_eq!(steady_quantile(&v, 0.5), 1.0);
        assert_eq!(steady_quantile(&v, 0.9), 1.0);
        assert_eq!(quantile(&v, 0.9), 100.0);
        // Too few samples per block: plain quantile.
        assert_eq!(steady_quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }
}
