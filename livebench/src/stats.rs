//! Reading numbers back out: interpolated percentiles from the
//! fixed-footprint histograms, medians, and the process's resident memory.

use deceit::core::HistCounts;

/// The `q`-th percentile (`0..=100`) of a nanosecond histogram, in
/// microseconds, or `None` when it holds no samples.
///
/// [`HistCounts::percentile`] answers with the representative of the
/// bucket the rank falls in (about 3% wide). Reporting that value alone
/// would move in bucket-sized steps, so the rank is interpolated
/// linearly inside the bucket: the bucket's share of the distribution
/// is recovered by bisecting on the percentile at which the answer
/// changes.
pub fn percentile_us(h: &HistCounts, q: f64) -> Option<f64> {
    if h.count() == 0 {
        return None;
    }
    let rep = h.percentile(q);
    let (lo, width) = bucket_of(rep);
    // Smallest percentile that lands in this bucket, and the largest.
    let enter = bisect(0.0, q, |p| h.percentile(p) >= rep);
    let leave = bisect(q, 100.0, |p| h.percentile(p) > rep);
    let frac = if leave > enter { ((q - enter) / (leave - enter)).clamp(0.0, 1.0) } else { 0.5 };
    Some((lo as f64 + frac * width as f64) / 1_000.0)
}

/// Lower edge and width of the histogram bucket whose representative is
/// `rep` (16 exact buckets, then 16 linear sub-buckets per power of two).
fn bucket_of(rep: u64) -> (u64, u64) {
    if rep < 16 {
        return (rep, 1);
    }
    let msb = 63 - rep.leading_zeros();
    let width = 1u64 << (msb - 4);
    (rep - width / 2, width)
}

/// The boundary in `[lo, hi]` where `pred` turns true (it must be
/// monotone: false below the boundary, true above).
fn bisect(mut lo: f64, mut hi: f64, pred: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Mean of a nanosecond histogram in microseconds (exact: from the sum).
pub fn mean_us(h: &HistCounts) -> Option<f64> {
    let s = h.summary();
    (s.count > 0).then_some(s.mean / 1_000.0)
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Current resident memory of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deceit::core::AtomicHistogram;

    #[test]
    fn interpolated_percentiles_track_the_true_values() {
        let h = AtomicHistogram::new();
        for v in 10_000..20_000u64 {
            h.record(v);
        }
        let counts = h.counts();
        let p50 = percentile_us(&counts, 50.0).expect("samples");
        let p90 = percentile_us(&counts, 90.0).expect("samples");
        assert!((p50 - 15.0).abs() < 0.1, "p50 {p50}");
        assert!((p90 - 19.0).abs() < 0.1, "p90 {p90}");
        assert_eq!(percentile_us(&HistCounts::zero(), 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
