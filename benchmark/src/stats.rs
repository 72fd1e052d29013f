//! Estimators: guarded percentiles and best-segment summaries.
//!
//! On a shared host, interference only ever slows a segment down, so the
//! run-level estimators are one-sided: the best segment's throughput and
//! the best segment's median latency. The interference measured on the
//! 2-vCPU sandbox comes in bursts of a few hundred milliseconds, so a
//! segment has to be short to have a chance of being clean: over seven
//! 12-s runs per workload the best 50-ms window's throughput ranged 4-7 %
//! where the best 500-ms window's ranged 9-17 %.

/// Samples that must lie beyond a reported percentile in the set it came
/// from; below that the percentile is refused.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it. Reorders `samples`.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| *samples.select_nth_unstable(rank - 1).1)
}

/// Median of unordered values (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The lower decile (nearest rank) of unordered values, or `None` unless at
/// least [`MIN_BEYOND`] of them lie below it. Interference only lengthens
/// an operation, so a low quantile of many repetitions is the steady one.
pub fn lower_decile(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let rank = values.len().div_ceil(10);
    (rank > MIN_BEYOND).then(|| values[rank - 1])
}

/// A fixed number of consecutive completions of a windowed phase (so every
/// segment has the same sample count and, on `churn_mixed`, the same number
/// of lifecycle cycles). Closed as soon as it is full, so the driver holds
/// one segment of samples at a time and its memory does not grow with the
/// program's throughput.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Segment {
    pub requests: usize,
    /// Rows those requests carried.
    pub rows: u64,
    /// From the completion that closed the previous segment to the one
    /// that closed this one.
    pub elapsed_ns: u64,
    /// Median and 99th percentile of submit→completion latency, each
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub p50_ns: Option<u64>,
    pub p99_ns: Option<u64>,
}

impl Segment {
    /// Summarises a segment's latencies and empties the buffer for the next.
    pub fn close(latencies_ns: &mut Vec<u64>, rows: u64, elapsed_ns: u64) -> Segment {
        let segment = Segment {
            requests: latencies_ns.len(),
            rows,
            elapsed_ns,
            p50_ns: percentile(latencies_ns, 0.5),
            p99_ns: percentile(latencies_ns, 0.99),
        };
        latencies_ns.clear();
        segment
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }
}

/// A percentile with the sample count of the segment it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counted {
    pub value_us: f64,
    pub samples: usize,
}

/// Run-level summary of a windowed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Max over segments of rows completed ÷ the segment's duration.
    pub peak_rows_per_s: f64,
    /// Median over segments of the same; the gap to the peak is the
    /// interference the host added.
    pub median_rows_per_s: f64,
    /// Min over segments of the segment's median latency.
    pub p50: Option<Counted>,
    /// Min over segments of the segment's p99.
    pub p99: Option<Counted>,
    pub requests: usize,
    pub segments: usize,
}

/// Reduces the segments of a phase to the best-segment estimators.
pub fn summarize(segments: &[Segment]) -> PhaseSummary {
    let best = |pick: fn(&Segment) -> Option<u64>| {
        segments
            .iter()
            .filter_map(|s| Some((pick(s)?, s.requests)))
            .min()
            .map(|(ns, samples)| Counted {
                value_us: ns as f64 / 1e3,
                samples,
            })
    };
    let mut rates: Vec<f64> = segments.iter().map(Segment::rows_per_s).collect();
    PhaseSummary {
        peak_rows_per_s: rates.iter().copied().fold(0.0, f64::max),
        median_rows_per_s: median(&mut rates),
        p50: best(|s| s.p50_ns),
        p99: best(|s| s.p99_ns),
        requests: segments.iter().map(|s| s.requests).sum(),
        segments: segments.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment of `requests` equal latencies that took `elapsed_ms`.
    fn segment(latency_ns: u64, requests: usize, elapsed_ms: u64) -> Segment {
        Segment::close(
            &mut vec![latency_ns; requests],
            requests as u64,
            elapsed_ms * 1_000_000,
        )
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // Descending, so the selection has work to do.
        let samples = |n: u64| (1..=n).rev().collect::<Vec<u64>>();
        // p99 of 1000: rank 990, exactly ten beyond.
        assert_eq!(percentile(&mut samples(1000), 0.99), Some(990));
        assert_eq!(percentile(&mut samples(999), 0.99), None);
        assert_eq!(percentile(&mut samples(21), 0.5), Some(11));
        assert_eq!(percentile(&mut samples(20), 0.5), Some(10));
        assert_eq!(percentile(&mut samples(19), 0.5), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn closing_a_segment_summarises_and_empties_the_buffer() {
        let mut latencies: Vec<u64> = (1..=1000).rev().collect();
        let seg = Segment::close(&mut latencies, 256_000, 500_000_000);
        assert_eq!(
            seg,
            Segment {
                requests: 1000,
                rows: 256_000,
                elapsed_ns: 500_000_000,
                p50_ns: Some(500),
                p99_ns: Some(990),
            }
        );
        assert_eq!(seg.rows_per_s(), 512_000.0);
        assert!(latencies.is_empty());
    }

    #[test]
    fn lower_decile_needs_ten_samples_below() {
        let mut values: Vec<f64> = (1..=128).rev().map(f64::from).collect();
        // Rank 13 of 128: twelve below.
        assert_eq!(lower_decile(&mut values), Some(13.0));
        assert_eq!(lower_decile(&mut values[..110]), Some(11.0));
        assert_eq!(lower_decile(&mut values[..100]), None);
        assert_eq!(lower_decile(&mut []), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn the_best_segment_wins() {
        let segments = [
            segment(9_000, 1200, 150), // slowed by the host
            segment(5_000, 1200, 50),  // the clean one
            segment(7_000, 1200, 100),
        ];
        let s = summarize(&segments);
        assert_eq!(s.peak_rows_per_s, 24_000.0);
        assert_eq!(s.median_rows_per_s, 12_000.0);
        let clean = Some(Counted {
            value_us: 5.0,
            samples: 1200,
        });
        assert_eq!((s.p50, s.p99), (clean, clean));
        assert_eq!((s.segments, s.requests), (3, 3600));
    }

    #[test]
    fn p99_is_refused_when_segments_are_too_small_for_it() {
        let s = summarize(&[segment(4_000, 256, 100), segment(6_000, 256, 100)]);
        assert_eq!(s.p99, None);
        assert_eq!(s.p50.map(|c| c.value_us), Some(4.0));
    }

    #[test]
    fn no_segment_reports_nothing() {
        let s = summarize(&[]);
        assert_eq!((s.p50, s.p99, s.segments), (None, None, 0));
        assert_eq!((s.peak_rows_per_s, s.median_rows_per_s), (0.0, 0.0));
    }
}
