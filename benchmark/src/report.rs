//! What one run measured, and the lines it prints.

use crate::spec::{self, MetricSpec};
use std::collections::BTreeMap;

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run tried to perform.
    pub attempted: u64,
    /// Operations that failed (see `analysis::failed_ops`).
    pub failed: u64,
    /// Every history atomic, every monitor quiet, no frame refused.
    pub correct: bool,
    /// Every metric the run measured, by name (units come from the spec).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context a reader wants beside the numbers: sample counts, how busy
    /// the cores were, what went wrong.
    pub notes: Vec<String>,
}

impl Report {
    /// A run that could not vouch for a single operation.
    pub fn all_failed(attempted: u64, why: String) -> Self {
        Report {
            attempted: attempted.max(1),
            failed: attempted.max(1),
            correct: false,
            notes: vec![why],
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "{name} is not in the spec");
        self.metrics.insert(name, value);
    }

    /// Prints every note and every metric by name with its unit, one per
    /// line — the lines the suite's parent process reads back.
    pub fn print_lines(&self) {
        for note in &self.notes {
            println!("note {note}");
        }
        println!(
            "ops attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for (name, value) in &self.metrics {
            let unit = spec::metric(name).map_or("?", |m| m.unit);
            println!("metric {name} {value} {unit}");
        }
    }

    /// The contract's result line: exactly the metrics of `wanted`, every
    /// one present (a layer the workload does not exercise reads 0).
    pub fn result_json(&self, wanted: &[MetricSpec]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .map(|m| {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_wanted_metrics() {
        let mut r = Report {
            attempted: 10,
            failed: 0,
            correct: true,
            ..Report::default()
        };
        r.set("ops_per_s", 2900.5);
        r.set("setup_s", 0.75);
        r.set("msgs_per_op", 36.0);
        let line = r.result_json(&spec::END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 2900.5, \"unit\": \"1/s\"}}}"
        );
        let layers = r.result_json(spec::PER_LAYER);
        assert!(layers.contains("\"msgs_per_op\": {\"value\": 36, \"unit\": \"count\"}"));
        assert!(layers.contains("\"trace.overhead_frac\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!layers.contains("ops_per_s"));
    }

    #[test]
    fn a_run_that_vouches_for_nothing_fails_everything() {
        let r = Report::all_failed(0, "boom".into());
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, false));
        let r = Report::all_failed(5000, "stalled".into());
        assert_eq!((r.attempted, r.failed), (5000, 5000));
    }
}
