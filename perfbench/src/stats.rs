//! Order statistics over timing samples.

/// Median (mean of the two middle samples for an even count); `NaN` when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` with fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let sorted = sorted(samples);
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Labeled summary line for a timing series: median, tail and count.
pub fn describe(name: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some((pct, value)) => format!("p{pct:.1} {value:.6} s"),
        None => "tail n/a (fewer than 11 samples)".to_string(),
    };
    let mut line = format!("{name}: p50 {:.6} s, {tail}, n = {}", median(samples), samples.len());
    if samples.len() <= 10 {
        let all: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        line.push_str(&format!(" [{}]", all.join(", ")));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&samples).expect("40 samples");
        assert_eq!(pct, 75.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert!(tail(&samples[..10]).is_none());
    }
}
