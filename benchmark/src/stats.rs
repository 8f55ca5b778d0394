//! Order statistics.

/// The nearest-rank `q`-quantile of `sorted` (ascending), with the
/// number of samples that lie strictly after its rank.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The `q`-quantile, or `None` when fewer than ten samples lie beyond
/// it: a tail percentile is only reported when the sample supports it.
pub fn supported_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    nearest_rank(sorted, q).and_then(|(v, beyond)| (beyond >= 10).then_some(v))
}

/// Cuts `slices` (each sorted ascending) into runs of consecutive slices
/// holding at least `min` values, a short remainder joining the last
/// run, and returns the median of the runs' supported `q`-quantiles. A
/// tail percentile taken per run and then the median keeps a burst of
/// interference from setting it for the whole window.
pub fn windowed_quantile(slices: &[Vec<u64>], min: usize, q: f64) -> Option<f64> {
    let mut runs: Vec<Vec<u64>> = Vec::new();
    let mut open = Vec::new();
    for s in slices {
        open.extend_from_slice(s);
        if open.len() >= min {
            runs.push(std::mem::take(&mut open));
        }
    }
    match runs.last_mut() {
        Some(last) => last.append(&mut open),
        None => runs.push(open),
    }
    let quantiles: Vec<f64> = runs
        .iter_mut()
        .filter_map(|r| {
            r.sort_unstable();
            supported_quantile(r, q).map(|v| v as f64)
        })
        .collect();
    median(&quantiles)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some((50, 50)));
        assert_eq!(nearest_rank(&v, 0.99), Some((99, 1)));
        assert_eq!(nearest_rank(&v, 1.0), Some((100, 0)));
        assert_eq!(nearest_rank(&v, 0.0), Some((1, 99)));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7], 0.99), Some((7, 0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_quantile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_quantile(&v, 0.99), Some(990));
        assert_eq!(supported_quantile(&v, 0.5), Some(500));
        assert_eq!(supported_quantile(&[1, 2, 3], 0.5), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_per_run_quantiles() {
        // Three runs of 1000 values; the middle one is slow.
        let run = |base: u64| -> Vec<Vec<u64>> {
            (0..10)
                .map(|i| (0..100).map(|j| base + i * 100 + j).collect())
                .collect()
        };
        let slices: Vec<Vec<u64>> = [run(0), run(1_000_000), run(0)].concat();
        assert_eq!(windowed_quantile(&slices, 1000, 0.99), Some(989.0));
        // A remainder short of a run joins the last run.
        let mut more = slices.clone();
        more.push(vec![5; 10]);
        assert_eq!(windowed_quantile(&more, 1000, 0.99), Some(989.0));
        // Too few values for ten beyond the p99: no value.
        assert_eq!(windowed_quantile(&slices[..9], 1000, 0.99), None);
        assert_eq!(windowed_quantile(&[], 1000, 0.99), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[f64::NAN, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
