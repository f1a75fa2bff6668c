//! Small statistics helpers for the table/figure generators.

/// Mean of a sample (NaN when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `q`-quantile (0..=1) by nearest-rank on a sorted copy.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Fraction of samples `<= x`.
pub fn cdf_at(samples: &[f64], x: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().filter(|&&v| v <= x).count() as f64 / samples.len() as f64
}

/// Renders a CDF as `(x, F(x))` pairs at the given x ticks.
pub fn cdf_points(samples: &[f64], ticks: &[f64]) -> Vec<(f64, f64)> {
    ticks.iter().map(|&x| (x, cdf_at(samples, x))).collect()
}

/// An ASCII sparkline of a CDF over log-spaced ticks, for terminal output.
pub fn spark_cdf(samples: &[f64], ticks: &[f64]) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    cdf_points(samples, ticks)
        .into_iter()
        .map(|(_, f)| {
            let idx = (f * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// Largest-remainder (Hamilton) apportionment: distributes `target`
/// units across `counts` proportionally, flooring each quota and handing
/// the leftover units to the rows with the largest fractional parts
/// (ties broken by lower index). The result always sums exactly to
/// `target` — the property independent per-row rounding lacks, and the
/// reason upscaled table columns now agree with their upscaled totals
/// at every scale. All integer math; no float drift.
///
/// With all-zero `counts` there is nothing to proportion against; the
/// result is all zeros (callers only hit this with `target == 0`).
pub fn apportion(counts: &[u64], target: u64) -> Vec<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return vec![0; counts.len()];
    }
    let (total, target128) = (u128::from(total), u128::from(target));
    let mut floors: Vec<u64> = Vec::with_capacity(counts.len());
    let mut fractions: Vec<(u128, usize)> = Vec::with_capacity(counts.len());
    for (i, &count) in counts.iter().enumerate() {
        let numerator = u128::from(count) * target128;
        floors.push((numerator / total) as u64);
        fractions.push((numerator % total, i));
    }
    let assigned: u64 = floors.iter().sum();
    let mut leftover = target - assigned;
    fractions.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &fractions {
        if leftover == 0 {
            break;
        }
        floors[i] += 1;
        leftover -= 1;
    }
    floors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_mean() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 0.5), 3.0);
        assert_eq!(quantile(&samples, 1.0), 5.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let samples = [10.0, 20.0, 20.0, 40.0];
        assert_eq!(cdf_at(&samples, 5.0), 0.0);
        assert_eq!(cdf_at(&samples, 20.0), 0.75);
        assert_eq!(cdf_at(&samples, 100.0), 1.0);
    }

    #[test]
    fn empty_samples_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn apportion_sums_exactly_to_target() {
        for (counts, target) in [
            (vec![1u64, 1, 1], 10u64),
            (vec![3, 3, 3], 10),
            (vec![1, 2, 3, 4], 1),
            (vec![0, 7, 0, 3], 1_000_003),
            (vec![44, 390], 44_390),
            (
                vec![12_637, 11_293, 9_928, 2_535, 1_197, 1_128, 0, 5_672],
                44_390,
            ),
        ] {
            let shares = apportion(&counts, target);
            assert_eq!(shares.iter().sum::<u64>(), target, "counts {counts:?}");
            assert_eq!(shares.len(), counts.len());
            // Zero-count rows never receive units.
            for (share, count) in shares.iter().zip(&counts) {
                assert!(*count > 0 || *share == 0);
            }
        }
    }

    #[test]
    fn apportion_is_exact_when_target_divides_evenly() {
        assert_eq!(apportion(&[10, 20, 30], 120), vec![20, 40, 60]);
        assert_eq!(apportion(&[5, 5], 10), vec![5, 5]);
    }

    #[test]
    fn apportion_breaks_fraction_ties_by_index() {
        // Two rows with identical fractional parts: the earlier row gets
        // the spare unit, deterministically.
        assert_eq!(apportion(&[1, 1], 3), vec![2, 1]);
    }

    #[test]
    fn apportion_handles_degenerate_inputs() {
        assert_eq!(apportion(&[], 5), Vec::<u64>::new());
        assert_eq!(apportion(&[0, 0], 0), vec![0, 0]);
        assert_eq!(apportion(&[7], 3), vec![3]);
    }
}
