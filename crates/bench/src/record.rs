//! `BENCH JSON` emission — one helper instead of N hand-formatted
//! `println!` templates.
//!
//! Every comparison bench reports the same way: a single stdout line
//!
//! ```text
//! BENCH JSON {"bench":"mailbox_ring_512","reference_ns_per_iter":...,"indexed_ns_per_iter":...,"speedup":1.83}
//! ```
//!
//! that CI greps into its bench artifact and checks against the bounds
//! in `ci/check_bench.py`, the one place that names each gated metric
//! and its direction. Metric insertion order is preserved, so the line
//! format is byte-compatible with the hand-rolled templates this module
//! replaced.

use serde_json::Value;

/// One bench result: named metrics in insertion order.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    name: String,
    metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Start a record for bench `name`.
    pub fn new(name: &str) -> Self {
        BenchRecord {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Append metric `key` rounded to `decimals` fractional digits
    /// (the rounding the old hand-formatted lines applied — `{:.0}`
    /// for nanosecond counts, `{:.3}` for ratios).
    pub fn metric(mut self, key: &str, value: f64, decimals: u32) -> Self {
        let scale = 10f64.powi(decimals as i32);
        self.metrics
            .push((key.to_string(), (value * scale).round() / scale));
        self
    }

    /// The stdout line CI greps: `BENCH JSON {...}` with the bench
    /// name first and metrics in insertion order.
    pub fn line(&self) -> String {
        let mut doc = Value::object();
        doc.set("bench", Value::String(self.name.clone()));
        for (k, v) in &self.metrics {
            doc.set(k, Value::Number(*v));
        }
        format!("BENCH JSON {}", serde_json::to_string(&doc))
    }

    /// Print the `BENCH JSON` line.
    pub fn emit(&self) {
        println!("{}", self.line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mailbox_record() -> BenchRecord {
        BenchRecord::new("mailbox_ring_512")
            .metric("reference_ns_per_iter", 123456.7, 0)
            .metric("indexed_ns_per_iter", 67890.2, 0)
            .metric("speedup", 1.8183456, 3)
    }

    #[test]
    fn line_matches_the_historical_hand_format() {
        // Exactly what the old println! template produced for the
        // same inputs: `{:.0}` ns, `{:.3}` speedup, same field order.
        assert_eq!(
            mailbox_record().line(),
            "BENCH JSON {\"bench\":\"mailbox_ring_512\",\
             \"reference_ns_per_iter\":123457,\
             \"indexed_ns_per_iter\":67890,\"speedup\":1.818}"
        );
    }

    #[test]
    fn line_round_trips_through_the_parser() {
        let line = mailbox_record().line();
        let json = line.strip_prefix("BENCH JSON ").expect("prefix");
        let doc = serde_json::from_str(json).expect("line parses");
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some("mailbox_ring_512")
        );
        assert_eq!(doc.get("speedup").and_then(Value::as_f64), Some(1.818));
        assert_eq!(
            doc.get("reference_ns_per_iter").and_then(Value::as_f64),
            Some(123457.0)
        );
    }
}
