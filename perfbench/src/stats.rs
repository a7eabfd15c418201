//! Order statistics over timing samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice (the
/// "inclusive" definition: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints the `info` line of a loop of unit operations: how many ran,
/// the min, quartiles and max of their wall times in ms, the median of
/// their calibrated times and the median slowdown of the machine.
pub fn print_unit_info(
    workload: &str,
    unit: &str,
    wall: &[f64],
    calibrated: &[f64],
    slowdown: f64,
) {
    let s = sorted(wall);
    println!(
        r#"{{"info":{{"workload":"{workload}","{unit}s":{},"{unit}_min_ms":{},"{unit}_q1_ms":{},"{unit}_median_ms":{},"{unit}_q3_ms":{},"{unit}_max_ms":{},"{unit}_calibrated_median_ms":{},"slowdown":{slowdown}}}}}"#,
        s.len(),
        s[0],
        quantile(&s, 0.25),
        quantile(&s, 0.5),
        quantile(&s, 0.75),
        s[s.len() - 1],
        median(calibrated),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        let s = sorted(&v);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(mean(&v), 2.5);
    }
}
