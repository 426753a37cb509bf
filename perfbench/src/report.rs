//! The result of one run: the checks' verdict, the failure tally and the
//! metrics, printed as a table and as the final JSON line.

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (design points, or requests in the light run).
    pub attempted: u64,
    /// Operations that failed: quarantined or checksum-mismatched points,
    /// or failed and refused requests.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.notes.push(format!(
            "check {}: {}",
            if ok { "ok  " } else { "FAIL" },
            what
        ));
        self.correct &= ok;
    }

    /// Prints notes and one `name value unit` row per metric.
    pub fn print_table(&self) {
        for n in &self.notes {
            println!("# {}", n);
        }
        for (name, value, unit) in &self.metrics {
            println!("{:<32} {:>16} {}", name, format_value(*value), unit);
        }
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    name,
                    format_value(*value),
                    unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Full-precision JSON number; non-finite values (never expected) print
/// as 0 so the line stays valid JSON, and the check that produced them
/// fails the run.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("p50_ms", 44.123456789, "ms");
        r.check(false, "replay matches");
        assert!(!r.correct);
        assert_eq!(
            r.json_line(),
            "{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{\"p50_ms\":{\"value\":44.123456789,\"unit\":\"ms\"}}}"
        );
    }
}
