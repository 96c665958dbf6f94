//! Metric collection and the two outputs of a run: a human table (every
//! metric with its unit and sample count) and the final JSON line.

use crate::stats::Samples;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (refused, errored or mis-verified).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Free-form context lines printed above the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n,
        });
    }

    /// Puts the median of `s`, if there is one.
    pub fn put_median(&mut self, name: &str, unit: &'static str, s: &mut Samples) {
        match s.median() {
            Some(v) => self.put(name, unit, v, s.len()),
            None => self.fail(format!("{name}: no samples")),
        }
    }

    /// Puts percentile `p` of `s`; too few samples beyond it is a failure
    /// of the run (the benchmark is sized so this never happens).
    pub fn put_percentile(&mut self, name: &str, unit: &'static str, s: &mut Samples, p: f64) {
        match s.percentile(p) {
            Some(v) => self.put(name, unit, v, s.len()),
            None => self.fail(format!(
                "{name}: p{p} withheld, only {} samples (needs {})",
                s.len(),
                crate::stats::min_samples_for(p)
            )),
        }
    }

    /// Adds a note with the distribution of `s`: the median and each tail
    /// percentile that has ten samples beyond it, with `n`.
    pub fn note_distribution(&mut self, what: &str, unit: &str, s: &mut Samples) {
        let mut parts = vec![format!("n={}", s.len())];
        if let Some(m) = s.median() {
            parts.push(format!("p50 {m:.3}"));
        }
        for p in [90.0, 95.0, 99.0] {
            match s.percentile(p) {
                Some(v) => parts.push(format!("p{p} {v:.3}")),
                None => parts.push(format!("p{p} withheld")),
            }
        }
        if let Some(m) = s.max() {
            parts.push(format!("max {m:.3}"));
        }
        self.notes
            .push(format!("{what} ({unit}): {}", parts.join(", ")));
    }

    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<34} {:>14.4} {:<8} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        let _ = writeln!(
            s,
            "{:<34} {:>14.6} {:<8} n={} ({} failed)",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted,
            self.failed
        );
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        s
    }

    /// The final JSON line, restricted to `names` (in that order). A name
    /// the run did not measure is a failure.
    pub fn json_line(&mut self, names: &[(&str, &str)]) -> String {
        let mut body = Vec::new();
        for (name, unit) in names {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => body.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    m.value
                )),
                _ => self.failures.push(format!("{name}: not measured")),
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}
