//! The run report: human-readable lines, then one JSON object as the last
//! line of standard output.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints the notes, one line per metric, and the JSON result line.
    /// A non-finite value cannot be written as JSON, so it marks the run
    /// incorrect and is printed as 0.
    pub fn print(&mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.correct = false;
                self.notes.push(format!("error: metric {} is not finite ({})", m.name, m.value));
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` (sorted in place) by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = p * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
