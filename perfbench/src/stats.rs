//! Order statistics and the scaling fit.

/// The `q`-quantile (0 < q <= 1) by nearest rank: the smallest sample
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the samples left when the lowest and the highest
/// `trim` share (0 <= trim < 0.5) are dropped: as efficient as the mean
/// on a spread that has several modes, and as robust as the median to
/// a few outliers. `NaN` when empty.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = ((trim * v.len() as f64).floor() as usize).min((v.len() - 1) / 2);
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Samples strictly above the `q`-quantile: how well the tail a
/// percentile names is populated.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Least-squares slope of `y` on `x` with one intercept per group
/// (a fixed-effects fit): each group is centred on its own means, so
/// groups that differ only by a constant factor (machines, in the
/// log domain) do not bias the slope. Points are `(group, x, y)`.
/// `None` when no group has two distinct `x`.
pub fn grouped_slope(points: &[(usize, f64, f64)]) -> Option<f64> {
    let mut groups: Vec<usize> = points.iter().map(|p| p.0).collect();
    groups.sort_unstable();
    groups.dedup();
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for g in groups {
        let members: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.0 == g)
            .map(|p| (p.1, p.2))
            .collect();
        let n = members.len() as f64;
        let mx = members.iter().map(|p| p.0).sum::<f64>() / n;
        let my = members.iter().map(|p| p.1).sum::<f64>() / n;
        for (x, y) in members {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
        }
    }
    (sxx > 0.0).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0], 0.2), 2.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0], 0.25), 3.0);
    }

    #[test]
    fn grouped_slope_ignores_group_offsets() {
        // y = 2x + c_g for two groups with different offsets.
        let pts = [(0, 1.0, 2.0), (0, 2.0, 4.0), (1, 1.0, 12.0), (1, 3.0, 16.0)];
        assert!((grouped_slope(&pts).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(grouped_slope(&[(0, 1.0, 1.0)]), None);
    }
}
