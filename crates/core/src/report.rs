//! Report tables: the common output format of every experiment.

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which paper artifact this regenerates ("Table 2", "Fig. 5", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (calibration caveats, paper anchor values).
    pub notes: Vec<String>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one row, degrading gracefully on a width mismatch.
    ///
    /// A wrong-width row is a bug in the experiment that produced it,
    /// but a half-rendered report is more useful than a crashed run, so
    /// this truncates (or pads with `""`) the row to the header width
    /// and records a diagnostic note instead of panicking.
    pub fn push_row(&mut self, mut cells: Vec<String>) {
        let want = self.headers.len();
        if cells.len() != want {
            self.note(format!(
                "malformed row (row width {} does not match {want} header(s)): {}",
                cells.len(),
                cells.join(" | ")
            ));
            cells.resize(want, String::new());
        }
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// The report as a JSON value tree (field order preserved:
    /// id, title, headers, rows, notes).
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let strings =
            |v: &[String]| Value::Array(v.iter().map(|s| Value::String(s.clone())).collect());
        let mut obj = Value::object();
        obj.set("id", Value::String(self.id.clone()));
        obj.set("title", Value::String(self.title.clone()));
        obj.set("headers", strings(&self.headers));
        obj.set(
            "rows",
            Value::Array(self.rows.iter().map(|r| strings(r)).collect()),
        );
        obj.set("notes", strings(&self.notes));
        obj
    }

    /// Render as pretty-printed JSON (via [`Report::to_value`] and the
    /// shared serializer, rather than hand-rolled string pasting).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value())
    }
}

/// Format seconds with sensible precision.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else if t >= 1e-3 {
        format!("{:.2} ms", t * 1e3)
    } else {
        format!("{:.2} us", t * 1e6)
    }
}

/// Format bytes/s as GB/s.
pub fn gbs(b: f64) -> String {
    format!("{:.2}", b / 1e9)
}

/// Format a Gflop/s value.
pub fn gf(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut r = Report::new("Table X", "demo", &["a", "long-header"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.note("hello");
        let t = r.to_text();
        assert!(t.contains("Table X"));
        assert!(t.contains("long-header"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn json_round_trips_fields() {
        let mut r = Report::new("Fig. 9", "demo \"quoted\"", &["x", "y"]);
        r.push_row(vec!["42".into(), "weird\ncell\t\"".into()]);
        r.note("caveat");
        let j = r.to_json();
        // Field order is part of the format: id, title, headers, rows,
        // notes — downstream diffs rely on it.
        let order: Vec<usize> = [
            "\"id\"",
            "\"title\"",
            "\"headers\"",
            "\"rows\"",
            "\"notes\"",
        ]
        .iter()
        .map(|k| j.find(k).unwrap())
        .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "field order: {j}");
        // And the output must parse back to exactly the same data.
        let v = serde_json::from_str(&j).unwrap();
        assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("Fig. 9"));
        assert_eq!(
            v.get("title").and_then(|x| x.as_str()),
            Some("demo \"quoted\"")
        );
        let rows = v.get("rows").and_then(|x| x.as_array()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = rows[0].as_array().unwrap();
        assert_eq!(row[1].as_str(), Some("weird\ncell\t\""));
        assert_eq!(
            v.get("notes").and_then(|x| x.as_array()).unwrap()[0].as_str(),
            Some("caveat")
        );
    }

    #[test]
    fn mismatched_row_degrades_gracefully() {
        let mut r = Report::new("T", "t", &["a", "b"]);
        r.push_row(vec!["short".into()]);
        r.push_row(vec!["x".into(), "y".into(), "extra".into()]);
        // Both rows land, normalised to the header width, and each
        // mismatch leaves a diagnostic note.
        assert_eq!(r.rows, vec![vec!["short", ""], vec!["x", "y"]]);
        assert_eq!(
            r.notes,
            [
                "malformed row (row width 1 does not match 2 header(s)): short",
                "malformed row (row width 3 does not match 2 header(s)): x | y | extra",
            ]
        );
        // The degraded report still renders.
        assert!(r.to_text().contains("short"));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1234.5), "1234");
        assert_eq!(secs(0.5), "500.00 ms");
        assert_eq!(secs(2e-6), "2.00 us");
        assert_eq!(gbs(3.2e9), "3.20");
        assert_eq!(gf(0.5), "0.500");
    }
}
