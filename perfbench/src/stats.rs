//! Order statistics for latency samples.
//!
//! A tail percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must rank strictly after the chosen one, so a p99
//! needs at least 1 000 samples.

/// Samples that must rank beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in percent, `0 < q <= 100`) of ascending
/// `sorted` samples, with the number of samples ranked beyond it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    let n = sorted.len();
    // Rank = ceil(q/100 · n), computed on integers so 99 % of 1 000 is 990.
    let scaled = (q * 1_000.0).round() as u128 * n as u128;
    let rank = scaled.div_ceil(100_000).clamp(1, n as u128) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// Percentile `q` of ascending `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).filter(|&(_, beyond)| beyond >= MIN_BEYOND).map(|(v, _)| v)
}

/// The highest of `candidates` (in percent, any order) that `sorted`
/// supports, with its value.
pub fn highest_supported(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    let mut qs = candidates.to_vec();
    qs.sort_by(|a, b| b.total_cmp(a));
    qs.into_iter().find_map(|q| supported_percentile(sorted, q).map(|v| (q, v)))
}

/// Percentile `q` as the median over consecutive windows of `in_order`
/// (samples in send order): the most windows, up to `max_windows`, that
/// each still support `q` on their own. One stall then moves one window's
/// value, not the reported one. Returns the median and the per-window
/// values.
pub fn windowed_percentile(
    in_order: &[f64],
    q: f64,
    max_windows: usize,
) -> Option<(f64, Vec<f64>)> {
    (1..=max_windows.max(1)).rev().find_map(|windows| {
        let size = in_order.len() / windows;
        let values: Option<Vec<f64>> = in_order
            .chunks(size.max(1))
            .take(windows)
            .map(|window| supported_percentile(&sorted(window), q))
            .collect();
        values.and_then(|v| median(&v).map(|m| (m, v)))
    })
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = ramp(1_000);
        assert_eq!(nearest_rank(&s, 50.0), Some((500.0, 500)));
        assert_eq!(nearest_rank(&s, 99.0), Some((990.0, 10)));
        assert_eq!(nearest_rank(&s, 100.0), Some((1_000.0, 0)));
        assert_eq!(nearest_rank(&ramp(3), 50.0), Some((2.0, 1)));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&s, 0.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(&ramp(1_000), 99.0), Some(990.0));
        assert_eq!(supported_percentile(&ramp(999), 99.0), None);
        assert_eq!(supported_percentile(&ramp(2_000), 99.0), Some(1_980.0));
        assert_eq!(supported_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn highest_supported_falls_back_to_lower_percentiles() {
        let candidates = [50.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported(&ramp(1_000), &candidates), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&ramp(500), &candidates), Some((95.0, 475.0)));
        assert_eq!(highest_supported(&ramp(100), &candidates), Some((90.0, 90.0)));
        assert_eq!(highest_supported(&ramp(5), &candidates), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 1 000; the middle one holds a stall.
        let mut samples = ramp(1_000);
        samples.extend((1..=1_000).map(|i| i as f64 * 10.0));
        samples.extend(ramp(1_000));
        assert_eq!(
            windowed_percentile(&samples, 99.0, 3),
            Some((990.0, vec![990.0, 9_900.0, 990.0]))
        );
        // Too few samples for three windows: fall back to fewer.
        assert_eq!(
            windowed_percentile(&ramp(2_500), 99.0, 3),
            Some((1_863.0, vec![1_238.0, 2_488.0]))
        );
        assert_eq!(windowed_percentile(&ramp(999), 99.0, 3), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn union_length_merges_overlaps() {
        assert_eq!(union_length(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_length(&mut [(20, 30), (0, 10)]), 20);
        assert_eq!(union_length(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_length(&mut []), 0);
    }
}
