//! Sample statistics, metric records and process measurements.

/// Percentiles the tail metric may report, in per mille, highest last.
pub const TAIL_LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .rfind(|&q| n * (1000 - q) >= TAIL_MIN_BEYOND * 1000)
        .map(|q| q as f64 / 10.0)
}

/// Percentile `q` (0–100) by linear interpolation between order
/// statistics. `xs` must be non-empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// A latency sample's summary: median, the tail percentile the sample
/// size supports, and the sample count they rest on.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// Percentile `tail` was read at; `None` when fewer than eleven
    /// samples leave no percentile with ten beyond it, in which case
    /// `tail` is the slowest sample.
    pub tail_q: Option<f64>,
    pub samples: usize,
}

impl Latency {
    pub fn of(xs: &[f64]) -> Self {
        let tail_q = tail_percentile(xs.len());
        let tail = match tail_q {
            Some(q) => percentile(xs, q),
            None => xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        Self {
            p50: median(xs),
            tail,
            tail_q,
            samples: xs.len(),
        }
    }

    /// Which percentile `tail` is, and over how many samples, as a JSON
    /// string.
    pub fn label(&self) -> String {
        match self.tail_q {
            Some(q) => format!("\"p{q} of {}\"", self.samples),
            None => format!(
                "\"max of {} (too few samples for a percentile)\"",
                self.samples
            ),
        }
    }
}

/// Metric names are at most 64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule itself, for every size up to 20k.
        for n in 0..20_000usize {
            if let Some(q) = tail_percentile(n) {
                // Samples strictly above the q-th percentile's rank.
                let permille = (q * 10.0).round() as usize;
                let beyond = n - (n * permille).div_ceil(1000);
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn latency_falls_back_to_the_maximum_on_tiny_samples() {
        let l = Latency::of(&[3.0, 1.0, 2.0]);
        assert_eq!((l.p50, l.tail, l.tail_q, l.samples), (2.0, 3.0, None, 3));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&xs);
        assert_eq!(l.tail_q, Some(95.0));
        assert!((l.tail - 190.05).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 100.0), 3.0);
    }

    #[test]
    fn metric_name_pattern() {
        for ok in ["setup_s", "forest.walk_ns_per_step", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünï",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
