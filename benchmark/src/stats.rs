//! Order statistics over raw samples, the result checksum, process
//! memory, and the metric list a run prints.

use obstacle_core::Answer;
use std::time::Duration;

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1); fewer and the order statistic is one outlier.
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending (NaN-safe total order).
pub fn sort(samples: &mut [f64]) {
    obstacle_geom::sort_by_f64_key(samples, |x| *x);
}

/// The `p`-quantile of ascending `sorted` (nearest-rank; 0 when empty).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted `samples` (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `(max − min) / median` of `samples` — the repeat spread printed beside
/// every median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether at least [`MIN_BEYOND`] of `n` samples lie beyond the rank
/// [`quantile`] reports for `p`.
pub fn percentile_is_resolved(n: usize, p: f64) -> bool {
    n.saturating_sub((p * n as f64).ceil() as usize) >= MIN_BEYOND
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a over the result payloads of a run (ids, distance bits,
/// polylines) — informational: equal checksums on two commits mean equal
/// answers without shipping them.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn rows2(&mut self, rows: &[(u64, f64)]) {
        self.word(rows.len() as u64);
        for &(id, d) in rows {
            self.word(id);
            self.word(d.to_bits());
        }
    }

    /// Folds `(s, t, distance)` join rows in.
    pub fn rows3(&mut self, rows: &[(u64, u64, f64)]) {
        self.word(rows.len() as u64);
        for &(s, t, d) in rows {
            self.word(s);
            self.word(t);
            self.word(d.to_bits());
        }
    }

    /// Folds one answer's payload in.
    pub fn answer(&mut self, a: &Answer) {
        match a {
            Answer::Range(r) => self.rows2(&r.hits),
            Answer::Nearest(r) => self.rows2(&r.neighbors),
            Answer::DistanceJoin(r) | Answer::SemiJoin(r) => self.rows3(&r.pairs),
            Answer::ClosestPairs(r) => self.rows3(&r.pairs),
            Answer::Path(None) => self.word(u64::MAX),
            Answer::Path(Some(p)) => {
                self.word(p.distance.to_bits());
                for pt in &p.points {
                    self.word(pt.x.to_bits());
                    self.word(pt.y.to_bits());
                }
            }
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The named metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Metrics {
    /// Records metric `name` = `value` `unit`, with a free-text note
    /// (sample count, spread) printed beside it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.rows.push((name.to_string(), value, unit, note.into()));
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit, note) in &self.rows {
            println!("  {name:<44} {value:>14.4} {unit:<6} {note}");
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit, _)| {
                // A non-finite value has no JSON form; it also means the
                // run measured nothing, which `main` reports as a failure.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn resolution_rule_counts_samples_beyond() {
        assert!(percentile_is_resolved(1000, 0.99));
        assert!(!percentile_is_resolved(999, 0.99));
        assert!(percentile_is_resolved(100, 0.90));
    }
}
