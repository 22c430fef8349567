//! Summary statistics: nearest-rank percentiles, the tail percentile a
//! sample supports, and goodput.

/// Candidate tail percentiles, in tenths of a percent, highest first.
const TAIL_LADDER: [u32; 7] = [999, 990, 950, 900, 800, 750, 500];

/// Samples needed beyond a percentile for it to be reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `q` (tenths of a percent)
/// in `n` sorted samples.
fn rank(n: usize, q: u32) -> usize {
    let r = (q as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1)) - 1
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it, in tenths of a
/// percent; the median when even that has too few.
pub fn tail_q(n: usize) -> u32 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(500)
}

/// `p99.9`, `p99`, `p95`, ... for a ladder entry.
pub fn q_name(q: u32) -> String {
    if q.is_multiple_of(10) {
        format!("p{}", q / 10)
    } else {
        format!("p{}.{}", q / 10, q % 10)
    }
}

/// Percentile `q` (tenths of a percent) of `values`, nearest rank.
pub fn percentile(values: &[f64], q: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500)
}

/// Median and supported tail of a latency sample.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: u32,
}

pub fn summarize(values: &[f64]) -> Summary {
    let q = tail_q(values.len());
    Summary { n: values.len(), p50: median(values), tail: percentile(values, q), tail_q: q }
}

/// Like [`summarize`] over `(time s, value)` samples, but the median is
/// [`windowed_median`]: a stretch of interference from outside the
/// benchmark shorter than a window does not move it. The tail is over
/// every sample, since a window holds too few.
pub fn summarize_windowed(samples: &[(f64, f64)], span_s: f64) -> Summary {
    let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    Summary { p50: windowed_median(samples, span_s), ..summarize(&values) }
}

/// Windows a run's timed loop is cut into; throughputs and medians are
/// the median over windows.
pub const WINDOWS: usize = 5;

/// The window of `[0, span_s)` time `t` falls in.
fn window(t: f64, span_s: f64) -> Option<usize> {
    (t >= 0.0 && t < span_s).then(|| ((t / span_s * WINDOWS as f64) as usize).min(WINDOWS - 1))
}

/// Median over [`WINDOWS`] equal windows of `[0, span_s)` of the events
/// per second completed in each window.
pub fn windowed_rate(done_s: &[f64], span_s: f64) -> f64 {
    let mut counts = [0usize; WINDOWS];
    for &t in done_s {
        if let Some(w) = window(t, span_s) {
            counts[w] += 1;
        }
    }
    let w = span_s / WINDOWS as f64;
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / w).collect();
    median(&rates)
}

/// Median over the [`WINDOWS`] equal windows of `[0, span_s)` of the
/// median value of the samples in each; windows without samples are
/// skipped.
pub fn windowed_median(samples: &[(f64, f64)], span_s: f64) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        if let Some(w) = window(t, span_s) {
            per[w].push(v);
        }
    }
    let medians: Vec<f64> = per.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    median(&medians)
}

/// Goodput: completions per second (see [`windowed_rate`]) that
/// succeeded and met `limit_ms`; a failed request counts as missing the
/// limit. Each sample is (completion time s, latency ms, succeeded).
pub fn goodput(samples: &[(f64, f64, bool)], limit_ms: f64, span_s: f64) -> f64 {
    let good: Vec<f64> =
        samples.iter().filter(|&&(_, ms, ok)| ok && ms <= limit_ms).map(|&(t, _, _)| t).collect();
    windowed_rate(&good, span_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_q(10_000), 999); // exactly 10 beyond p99.9
        assert_eq!(tail_q(9_999), 990); // 9 beyond p99.9
        assert_eq!(tail_q(1_000), 990); // exactly 10 beyond p99
        assert_eq!(tail_q(999), 950); // 9 beyond p99
        assert_eq!(tail_q(300), 950); // 15 beyond p95
        assert_eq!(tail_q(70), 800); // 14 beyond p80; 7 beyond p90
        assert_eq!(tail_q(5), 500);
        assert_eq!(tail_q(0), 500);
        for n in 1..3000 {
            let q = tail_q(n);
            if q != 500 {
                assert!(n - 1 - rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
            // No higher ladder entry qualifies.
            for &higher in TAIL_LADDER.iter().filter(|&&h| h > q) {
                assert!(n - 1 - rank(n, higher) < TAIL_MIN_BEYOND, "n={n} {higher} qualifies");
            }
        }
    }

    #[test]
    fn names_and_nearest_rank() {
        assert_eq!(q_name(999), "p99.9");
        assert_eq!(q_name(950), "p95");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn goodput_excludes_failed_and_over_limit_requests() {
        // Two completions in each of the five 1 s windows, one of them
        // good, except the last window where both are good.
        let mut samples = Vec::new();
        for w in 0..5 {
            let t = w as f64 + 0.5;
            samples.push((t, 10.0, true)); // good
            samples.push(match w {
                0 => (t, 25.1, true), // over the limit
                1 => (t, 5.0, false), // fast but failed
                4 => (t, 25.0, true), // exactly at the limit: good
                _ => (t, 30.0, true), // over the limit
            });
        }
        assert_eq!(goodput(&samples, 25.0, 5.0), 1.0);
        assert_eq!(goodput(&[], 25.0, 1.0), 0.0);
    }

    #[test]
    fn windowed_median_ignores_a_slow_window() {
        // Latency 1.0 everywhere but 9.0 throughout window 3 of 5.
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| i as f64 / 20.0)
            .map(|t| (t, if (3.0..4.0).contains(&t) { 9.0 } else { 1.0 }))
            .collect();
        assert_eq!(windowed_median(&samples, 5.0), 1.0);
        let s = summarize_windowed(&samples, 5.0);
        assert_eq!((s.n, s.p50, s.tail), (100, 1.0, 9.0));
        assert!(windowed_median(&[], 5.0).is_nan());
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // 10 events/s for 5 s, except nothing completes in second 2.
        let done: Vec<f64> =
            (0..50).map(|i| i as f64 / 10.0).filter(|t| !(2.0..3.0).contains(t)).collect();
        assert_eq!(windowed_rate(&done, 5.0), 10.0);
        // Events at or past the span are not counted.
        assert_eq!(windowed_rate(&[0.1, 5.0, 7.0], 5.0), 0.0);
    }
}
