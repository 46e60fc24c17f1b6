//! Small statistics helpers: quantiles, Jain's fairness index and the
//! process's peak resident memory.

/// The `q`-quantile of `values` (nearest rank on a sorted copy); NaN
/// when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `values`; NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Jain's fairness index `(Σx)² / (n Σx²)`: 1 when every value is
/// equal, `1/n` when one value carries everything. NaN when empty.
#[must_use]
pub fn jain(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let squares: f64 = values.iter().map(|x| x * x).sum();
    sum * sum / (values.len() as f64 * squares)
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The quantile of a run's per-unit throughputs that it reports.
///
/// On a shared VM the program runs in two speed modes: a quiet one, and
/// one about 30 % slower while another tenant loads the same core. Runs
/// see the modes in any mix, so a median flips between them from run to
/// run. The slower mode is present in nearly every run, and the 10th
/// percentile of throughput sits in it, so it is the figure that repeats.
pub const SLOW_MODE: f64 = 0.1;

/// The slow-mode value of `times`: their `1 − SLOW_MODE` quantile.
#[must_use]
pub fn slow_mode_time(times: &[f64]) -> f64 {
    quantile(times, 1.0 - SLOW_MODE)
}

/// The throughput of `units`, each `(operations, seconds)`, in the slow
/// mode: operations per second at the [`SLOW_MODE`] quantile of
/// per-unit throughput.
#[must_use]
pub fn slow_mode_rate(units: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = units.iter().map(|&(ops, s)| ops / s).collect();
    quantile(&rates, SLOW_MODE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_ranks() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn jain_is_one_for_equal_values() {
        assert!((jain(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
