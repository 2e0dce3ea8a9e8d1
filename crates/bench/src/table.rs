//! Plain-text table rendering plus the machine-readable record stream the
//! experiment binary serialises to `BENCH_E*.json`.

/// One machine-readable measurement row of an experiment: enough to plot the
/// perf trajectory across PRs without re-parsing the ASCII tables.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Number of user vertices of the workload graph.
    pub n: usize,
    /// Number of user edges of the workload graph.
    pub m: usize,
    /// Backend name ("parallel", "sequential", …).
    pub backend: String,
    /// The policy/configuration label the row measures.
    pub policy: String,
    /// Mean wall-clock nanoseconds per update.
    pub ns_per_update: f64,
    /// Mean nanoseconds per update spent maintaining the tree index
    /// (patch splice or rebuild) — present for the experiments that isolate
    /// it (E11).
    pub index_ns_per_update: Option<f64>,
    /// Size of the checkpoint file in bytes — present for the checkpoint
    /// experiment (E15).
    pub disk_bytes: Option<u64>,
    /// [`pardfs::graph::Graph::adjacency_words`] of the workload graph at
    /// measurement time — the streaming memory accountant, stamped by the
    /// checkpoint experiment (E15) so footprint regressions show up next to
    /// the timing ones.
    pub adjacency_words: Option<usize>,
    /// Logical cores of the host that recorded the row. The bench gate
    /// compares this against the committed baseline's stamp and downgrades
    /// timing differences to an explicit advisory when they differ — the
    /// "recorded on a one-core container" caveat, machine-checkable.
    pub host_cores: usize,
}

/// Logical cores available to this process — the value stamped into every
/// fresh [`BenchRecord`].
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl BenchRecord {
    /// A blank record with the host core count stamped — construction sites
    /// fill the measured fields with functional-update syntax
    /// (`BenchRecord { n, m, .., ..BenchRecord::stamped() }`) so no site can
    /// forget the stamp.
    pub fn stamped() -> Self {
        BenchRecord {
            n: 0,
            m: 0,
            backend: String::new(),
            policy: String::new(),
            ns_per_update: 0.0,
            index_ns_per_update: None,
            disk_bytes: None,
            adjacency_words: None,
            host_cores: host_cores(),
        }
    }

    fn to_json(&self) -> String {
        let index = match self.index_ns_per_update {
            Some(v) => format!(", \"index_ns_per_update\": {v:.1}"),
            None => String::new(),
        };
        let disk = match self.disk_bytes {
            Some(v) => format!(", \"disk_bytes\": {v}"),
            None => String::new(),
        };
        let words = match self.adjacency_words {
            Some(v) => format!(", \"adjacency_words\": {v}"),
            None => String::new(),
        };
        format!(
            "{{\"n\": {}, \"m\": {}, \"backend\": {}, \"policy\": {}, \"ns_per_update\": {:.1}{}{}{}, \"host_cores\": {}}}",
            self.n,
            self.m,
            json_string(&self.backend),
            json_string(&self.policy),
            self.ns_per_update,
            index,
            disk,
            words,
            self.host_cores
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) — the
/// vendored offline environment has no serde.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A printable table: a title, a header row and data rows, plus an optional
/// machine-readable record stream keyed by the experiment id.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("E10", "E11", …); empty when the table has no
    /// machine-readable companion.
    pub id: String,
    /// Experiment title (printed above the table).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
    /// Machine-readable rows serialised to `BENCH_<id>.json`.
    pub records: Vec<BenchRecord>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            id: String::new(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// The machine-readable companion as a JSON array (one object per
    /// [`BenchRecord`]), or `None` when the table carries no records.
    pub fn records_json(&self) -> Option<String> {
        if self.records.is_empty() {
            return None;
        }
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| format!("  {}", r.to_json()))
            .collect();
        Some(format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "time"]);
        t.push_row(vec!["10".into(), "1.5".into()]);
        t.push_row(vec!["100000".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("100000"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn records_serialise_to_json() {
        let mut t = Table::new("demo", &["a"]);
        assert!(t.records_json().is_none());
        t.id = "E99".into();
        t.records.push(BenchRecord {
            n: 1024,
            m: 4096,
            backend: "parallel".into(),
            policy: "patched \"index\"".into(),
            ns_per_update: 1234.5,
            disk_bytes: Some(8192),
            adjacency_words: Some(4096),
            ..BenchRecord::stamped()
        });
        let json = t.records_json().unwrap();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"n\": 1024"));
        assert!(json.contains("\"backend\": \"parallel\""));
        assert!(json.contains("patched \\\"index\\\""));
        assert!(json.contains("\"ns_per_update\": 1234.5"));
        assert!(json.contains("\"disk_bytes\": 8192"));
        assert!(json.contains("\"adjacency_words\": 4096"));
        assert!(json.contains(&format!("\"host_cores\": {}", host_cores())));
        assert!(json.trim_end().ends_with(']'));
    }
}
