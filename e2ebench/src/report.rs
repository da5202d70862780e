//! Order statistics, correctness accounting and the result line.

use std::collections::BTreeMap;

/// Median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Operations attempted and failed, by the benchmark's definition of a
/// failure: an error frame, a missing delta, a mismatched correctness
/// check, or a panicked run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one correctness check; a mismatch is a failure.
    pub fn check(&mut self, what: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("e2ebench: correctness check failed: {what}");
        }
    }

    /// Counts `n` failed operations.
    pub fn fail(&mut self, what: &str, n: u64) {
        if n > 0 {
            self.attempted += n;
            self.failed += n;
            eprintln!("e2ebench: {n} failed operation(s): {what}");
        }
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A non-finite value cannot be written as JSON; it is reported as a
/// failed check instead.
pub fn result_line(checks: &mut Checks, metrics: &Metrics) -> String {
    let mut body = Vec::new();
    for (name, &(value, unit)) in &metrics.0 {
        if value.is_finite() {
            body.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        } else {
            checks.check(&format!("metric {name} is finite"), false);
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let mut c = Checks::default();
        c.check("ok", true);
        c.check("perturbed", false);
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, "s");
        let line = result_line(&mut c, &m);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
    }
}
