//! The result line: named metrics with units, plus the correctness ledger.

use crate::check::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metric values with their units, in insertion-independent order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets metric `name` (a repeated name overwrites).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.values
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (k, (v, u)) in &self.values {
            let _ = writeln!(out, "  {k:<44} {v:>16.6} {u}");
        }
        out
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (`null` is never produced: non-finite values are caught before).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The single-line result object.
pub fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    for (i, (k, (v, u))) in metrics.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            num(*v)
        );
    }
    out.push_str("}}");
    out
}
