//! The versioned, line-delimited trace format (`pardfs-trace v1`).
//!
//! See the crate docs for the full format spec. The invariant this module
//! maintains is **canonical rendering**: [`Trace::render`] emits exactly one
//! textual form, and [`Trace::parse`] accepts exactly that form (plus
//! nothing else), so `parse(render(t)).render() == render(t)` byte for byte
//! — which is what lets traces live under `tests/corpus/` as diffable
//! regression artifacts.

use pardfs_graph::{Graph, Update, Vertex};
use std::fmt::Write as _;

/// The magic first line of every trace file.
pub const TRACE_MAGIC: &str = "pardfs-trace v1";

/// A query record of a trace body — the read-side counterpart of [`Update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// `same_component(u, v)` — backend-independent answer.
    SameComponent(Vertex, Vertex),
    /// `forest_parent(v)` — answer depends on the maintained tree shape, so
    /// replay executes it but never fingerprints the value.
    ForestParent(Vertex),
    /// `forest_roots()` — only the *count* (= component count) is
    /// backend-independent and fingerprinted.
    ForestRoots,
}

/// One batch of a trace phase: consecutive updates applied through
/// `apply_batch` (so native batch paths are exercised), or consecutive
/// queries answered back to back.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceBatch {
    /// An update batch.
    Updates(Vec<Update>),
    /// A query batch.
    Queries(Vec<TraceQuery>),
}

/// A named phase: an ordered sequence of update/query batches.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePhase {
    /// Phase name (single whitespace-free token).
    pub name: String,
    /// The phase's batches, in order.
    pub batches: Vec<TraceBatch>,
}

impl TracePhase {
    /// Total updates across the phase's update batches.
    pub fn num_updates(&self) -> usize {
        self.batches
            .iter()
            .map(|b| match b {
                TraceBatch::Updates(u) => u.len(),
                TraceBatch::Queries(_) => 0,
            })
            .sum()
    }

    /// Total queries across the phase's query batches.
    pub fn num_queries(&self) -> usize {
        self.batches
            .iter()
            .map(|b| match b {
                TraceBatch::Queries(q) => q.len(),
                TraceBatch::Updates(_) => 0,
            })
            .sum()
    }
}

/// A recorded, replayable workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the scenario family that produced the trace.
    pub scenario: String,
    /// Generation seed (a reproducibility stamp; replay never re-rolls).
    pub seed: u64,
    /// Initial vertex-id capacity of the graph.
    pub n: usize,
    /// Initial edges, in canonical (recorded) order. Order matters: the
    /// replayed graph's adjacency lists — and therefore every backend's DFS
    /// tree — depend on insertion order, so both recording and replay build
    /// the graph from exactly this list.
    pub edges: Vec<(Vertex, Vertex)>,
    /// The phases, in execution order.
    pub phases: Vec<TracePhase>,
    /// Recorded fingerprints: `(key, value)` with keys `components`,
    /// `queries` or `tree <backend>`.
    pub fingerprints: Vec<(String, u64)>,
}

impl Trace {
    /// Reconstruct the initial graph (the canonical form both the recorder
    /// and every replay share).
    pub fn initial_graph(&self) -> Graph {
        Graph::with_edges(self.n, &self.edges)
    }

    /// Initial edge count.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Total updates across all phases.
    pub fn num_updates(&self) -> usize {
        self.phases.iter().map(TracePhase::num_updates).sum()
    }

    /// Total queries across all phases.
    pub fn num_queries(&self) -> usize {
        self.phases.iter().map(TracePhase::num_queries).sum()
    }

    /// The recorded fingerprint under `key`, if any.
    pub fn fingerprint(&self, key: &str) -> Option<u64> {
        self.fingerprints
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Record (or overwrite) the fingerprint under `key`.
    pub fn set_fingerprint(&mut self, key: &str, value: u64) {
        match self.fingerprints.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.fingerprints.push((key.to_string(), value)),
        }
    }

    /// Render the canonical textual form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{TRACE_MAGIC}");
        let _ = writeln!(out, "scenario {}", self.scenario);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "n {}", self.n);
        let _ = writeln!(out, "m {}", self.edges.len());
        for phase in &self.phases {
            let _ = writeln!(
                out,
                "phase {} updates={} queries={}",
                phase.name,
                phase.num_updates(),
                phase.num_queries()
            );
        }
        let _ = writeln!(out, "edges {}", self.edges.len());
        for &(u, v) in &self.edges {
            let _ = writeln!(out, "{u} {v}");
        }
        let _ = writeln!(out, "body");
        for phase in &self.phases {
            let _ = writeln!(out, "!phase {}", phase.name);
            for batch in &phase.batches {
                match batch {
                    TraceBatch::Updates(updates) => {
                        let _ = writeln!(out, "batch update {}", updates.len());
                        for u in updates {
                            let _ = writeln!(out, "{}", render_update(u));
                        }
                    }
                    TraceBatch::Queries(queries) => {
                        let _ = writeln!(out, "batch query {}", queries.len());
                        for q in queries {
                            let _ = writeln!(out, "{}", render_query(q));
                        }
                    }
                }
            }
        }
        for (key, value) in &self.fingerprints {
            let _ = writeln!(out, "fingerprint {key} {value:016x}");
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parse the canonical textual form, naming the offending line on error.
    pub fn parse(text: &str) -> Result<Trace, String> {
        Parser::new(text).run()
    }
}

pub(crate) fn render_update(u: &Update) -> String {
    match u {
        Update::InsertEdge(a, b) => format!("ie {a} {b}"),
        Update::DeleteEdge(a, b) => format!("de {a} {b}"),
        Update::DeleteVertex(v) => format!("dv {v}"),
        Update::InsertVertex { edges } => {
            let mut s = String::from("iv");
            for e in edges {
                let _ = write!(s, " {e}");
            }
            s
        }
    }
}

fn render_query(q: &TraceQuery) -> String {
    match q {
        TraceQuery::SameComponent(u, v) => format!("sc {u} {v}"),
        TraceQuery::ForestParent(v) => format!("fp {v}"),
        TraceQuery::ForestRoots => "roots".to_string(),
    }
}

/// Line-oriented parser with positioned errors.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// The text's byte length: no section can hold more lines than this, so
    /// it bounds every pre-allocation sized by an untrusted count.
    max_lines: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate(),
            max_lines: text.len(),
        }
    }

    fn next_line(&mut self) -> Result<(usize, &'a str), String> {
        self.lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| "unexpected end of trace (missing `end` line?)".to_string())
    }

    fn expect_keyword<'b>(&self, line: (usize, &'b str), key: &str) -> Result<&'b str, String> {
        let (no, text) = line;
        text.strip_prefix(key)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .ok_or_else(|| format!("line {no}: expected `{key} ...`, got `{text}`"))
    }

    fn run(&mut self) -> Result<Trace, String> {
        let (no, magic) = self.next_line()?;
        if magic != TRACE_MAGIC {
            return Err(format!(
                "line {no}: not a pardfs trace (expected `{TRACE_MAGIC}`)"
            ));
        }
        let line = self.next_line()?;
        let scenario = self.expect_keyword(line, "scenario")?.to_string();
        let line = self.next_line()?;
        let seed: u64 = parse_num(line, self.expect_keyword(line, "seed")?)?;
        let line = self.next_line()?;
        let n: usize = parse_num(line, self.expect_keyword(line, "n")?)?;
        let line = self.next_line()?;
        let m: usize = parse_num(line, self.expect_keyword(line, "m")?)?;

        // Phase summary lines (zero or more), then the edge section.
        let mut summaries: Vec<(String, usize, usize)> = Vec::new();
        let edge_count: usize;
        loop {
            let (no, text) = self.next_line()?;
            if let Some(rest) = text.strip_prefix("phase ") {
                summaries.push(parse_phase_summary((no, rest))?);
            } else if let Some(rest) = text.strip_prefix("edges ") {
                edge_count = parse_num((no, text), rest)?;
                break;
            } else {
                return Err(format!(
                    "line {no}: expected `phase ...` or `edges <m>`, got `{text}`"
                ));
            }
        }
        if edge_count != m {
            return Err(format!(
                "edge section size {edge_count} disagrees with header m {m}"
            ));
        }
        let mut edges = Vec::with_capacity(edge_count.min(self.max_lines));
        for _ in 0..edge_count {
            let (no, text) = self.next_line()?;
            let mut it = text.split(' ');
            let u = parse_vertex(no, it.next())?;
            let v = parse_vertex(no, it.next())?;
            if it.next().is_some() {
                return Err(format!("line {no}: trailing tokens in edge record"));
            }
            if (u as usize) >= n || (v as usize) >= n {
                return Err(format!("line {no}: edge endpoint out of range (n = {n})"));
            }
            edges.push((u, v));
        }

        let line = self.next_line()?;
        self.expect_keyword(line, "body")?;

        // Body: phases of batches, then fingerprints, then `end`.
        let mut phases: Vec<TracePhase> = Vec::new();
        let mut fingerprints: Vec<(String, u64)> = Vec::new();
        loop {
            let (no, text) = self.next_line()?;
            if text == "end" {
                break;
            } else if let Some(name) = text.strip_prefix("!phase ") {
                phases.push(TracePhase {
                    name: name.to_string(),
                    batches: Vec::new(),
                });
            } else if let Some(rest) = text.strip_prefix("batch ") {
                let phase = phases
                    .last_mut()
                    .ok_or_else(|| format!("line {no}: `batch` before any `!phase`"))?;
                let (kind, count) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {no}: expected `batch <kind> <count>`"))?;
                let count: usize = parse_num((no, text), count)?;
                match kind {
                    "update" => {
                        let mut updates = Vec::with_capacity(count.min(self.max_lines));
                        for _ in 0..count {
                            let line = self.next_line()?;
                            updates.push(parse_update(line)?);
                        }
                        phase.batches.push(TraceBatch::Updates(updates));
                    }
                    "query" => {
                        let mut queries = Vec::with_capacity(count.min(self.max_lines));
                        for _ in 0..count {
                            let line = self.next_line()?;
                            queries.push(parse_query(line)?);
                        }
                        phase.batches.push(TraceBatch::Queries(queries));
                    }
                    other => return Err(format!("line {no}: unknown batch kind `{other}`")),
                }
            } else if let Some(rest) = text.strip_prefix("fingerprint ") {
                let (key, hex) = rest
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("line {no}: expected `fingerprint <key> <hex>`"))?;
                let value = canonical_hex(hex)
                    .ok_or_else(|| format!("line {no}: bad fingerprint value `{hex}`"))?;
                fingerprints.push((key.to_string(), value));
            } else {
                return Err(format!(
                    "line {no}: expected `!phase`, `batch`, `fingerprint` or `end`, got `{text}`"
                ));
            }
        }
        if self.lines.any(|(_, l)| !l.is_empty()) {
            return Err("trailing content after `end`".to_string());
        }

        let trace = Trace {
            scenario,
            seed,
            n,
            edges,
            phases,
            fingerprints,
        };
        // The phase summaries are derived data; a mismatch means the file was
        // hand-edited inconsistently (or truncated mid-body by something that
        // kept the line count plausible).
        let actual: Vec<(String, usize, usize)> = trace
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.num_updates(), p.num_queries()))
            .collect();
        if actual != summaries {
            return Err(format!(
                "phase summary disagrees with body (header {summaries:?}, body {actual:?})"
            ));
        }
        Ok(trace)
    }
}

fn parse_phase_summary(line: (usize, &str)) -> Result<(String, usize, usize), String> {
    let (no, rest) = line;
    let mut it = rest.split(' ');
    let name = it
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("line {no}: phase summary missing name"))?;
    let updates = it
        .next()
        .and_then(|t| t.strip_prefix("updates="))
        .and_then(canonical_num)
        .ok_or_else(|| format!("line {no}: phase summary missing updates=<u>"))?;
    let queries = it
        .next()
        .and_then(|t| t.strip_prefix("queries="))
        .and_then(canonical_num)
        .ok_or_else(|| format!("line {no}: phase summary missing queries=<q>"))?;
    if it.next().is_some() {
        return Err(format!("line {no}: trailing tokens in phase summary"));
    }
    Ok((name.to_string(), updates, queries))
}

/// A decimal token as `{}` renders it: digits only, with no sign and no
/// leading zero (except `0` itself). Every decimal token of a trace or a WAL
/// is read through here, so parsing accepts exactly what rendering emits.
pub(crate) fn canonical_num<T: std::str::FromStr>(token: &str) -> Option<T> {
    let digits = !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit());
    if digits && (token == "0" || !token.starts_with('0')) {
        token.parse().ok()
    } else {
        None
    }
}

/// A hex token as `{:016x}` renders it: exactly 16 lowercase hex digits.
pub(crate) fn canonical_hex(token: &str) -> Option<u64> {
    let digits = token
        .bytes()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if token.len() == 16 && digits {
        u64::from_str_radix(token, 16).ok()
    } else {
        None
    }
}

fn parse_num<T: std::str::FromStr>(line: (usize, &str), token: &str) -> Result<T, String> {
    canonical_num(token)
        .ok_or_else(|| format!("line {}: bad number `{token}` in `{}`", line.0, line.1))
}

fn parse_vertex(no: usize, token: Option<&str>) -> Result<Vertex, String> {
    token
        .and_then(canonical_num)
        .ok_or_else(|| format!("line {no}: expected a vertex id"))
}

pub(crate) fn parse_update(line: (usize, &str)) -> Result<Update, String> {
    let (no, text) = line;
    let mut it = text.split(' ');
    match it.next() {
        Some("ie") => {
            let u = parse_vertex(no, it.next())?;
            let v = parse_vertex(no, it.next())?;
            ensure_done(no, it)?;
            Ok(Update::InsertEdge(u, v))
        }
        Some("de") => {
            let u = parse_vertex(no, it.next())?;
            let v = parse_vertex(no, it.next())?;
            ensure_done(no, it)?;
            Ok(Update::DeleteEdge(u, v))
        }
        Some("dv") => {
            let v = parse_vertex(no, it.next())?;
            ensure_done(no, it)?;
            Ok(Update::DeleteVertex(v))
        }
        Some("iv") => {
            let edges = it
                .map(|t| parse_vertex(no, Some(t)))
                .collect::<Result<_, _>>()?;
            Ok(Update::InsertVertex { edges })
        }
        _ => Err(format!("line {no}: unknown update record `{text}`")),
    }
}

fn parse_query(line: (usize, &str)) -> Result<TraceQuery, String> {
    let (no, text) = line;
    let mut it = text.split(' ');
    match it.next() {
        Some("sc") => {
            let u = parse_vertex(no, it.next())?;
            let v = parse_vertex(no, it.next())?;
            ensure_done(no, it)?;
            Ok(TraceQuery::SameComponent(u, v))
        }
        Some("fp") => {
            let v = parse_vertex(no, it.next())?;
            ensure_done(no, it)?;
            Ok(TraceQuery::ForestParent(v))
        }
        Some("roots") => {
            ensure_done(no, it)?;
            Ok(TraceQuery::ForestRoots)
        }
        _ => Err(format!("line {no}: unknown query record `{text}`")),
    }
}

fn ensure_done<'a>(no: usize, mut it: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(t) => Err(format!("line {no}: trailing token `{t}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        Trace {
            scenario: "demo".into(),
            seed: 7,
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            phases: vec![
                TracePhase {
                    name: "warm".into(),
                    batches: vec![TraceBatch::Updates(vec![
                        Update::DeleteEdge(1, 2),
                        Update::InsertVertex { edges: vec![0, 3] },
                        Update::InsertVertex { edges: vec![] },
                    ])],
                },
                TracePhase {
                    name: "serve".into(),
                    batches: vec![
                        TraceBatch::Queries(vec![
                            TraceQuery::SameComponent(0, 3),
                            TraceQuery::ForestParent(2),
                            TraceQuery::ForestRoots,
                        ]),
                        TraceBatch::Updates(vec![Update::DeleteVertex(1)]),
                    ],
                },
            ],
            fingerprints: vec![("components".into(), 0xabcd), ("tree parallel".into(), 1)],
        }
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let trace = demo_trace();
        let text = trace.render();
        let parsed = Trace::parse(&text).expect("canonical text parses");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn fingerprint_accessors() {
        let mut t = demo_trace();
        assert_eq!(t.fingerprint("components"), Some(0xabcd));
        assert_eq!(t.fingerprint("tree sequential"), None);
        t.set_fingerprint("tree parallel", 99);
        assert_eq!(t.fingerprint("tree parallel"), Some(99));
    }

    #[test]
    fn counts_and_graph_reconstruction() {
        let t = demo_trace();
        assert_eq!(t.num_updates(), 4);
        assert_eq!(t.num_queries(), 3);
        let g = t.initial_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    mod properties {
        use crate::scenario::Scenario;
        use crate::trace::Trace;
        use proptest::prelude::*;

        // The record → render → parse → render round trip is byte-identical
        // for every scenario family at arbitrary sizes and seeds — the
        // invariant that makes checked-in traces diffable regression
        // artifacts.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn recorded_traces_round_trip_byte_identically(
                seed in any::<u64>(),
                n in 32usize..96,
                family in 0usize..6,
            ) {
                let scenario = Scenario::all()[family];
                let trace = scenario.record(n, seed);
                let text = trace.render();
                let parsed = Trace::parse(&text)
                    .expect("a rendered trace always parses");
                prop_assert_eq!(&parsed, &trace);
                prop_assert_eq!(parsed.render(), text);
            }
        }
    }

    #[test]
    fn malformed_traces_are_rejected_with_line_numbers() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("not a trace\n")
            .unwrap_err()
            .contains("line 1"));
        let good = demo_trace().render();
        // Truncation (no `end`).
        let cut = &good[..good.len() - 5];
        assert!(Trace::parse(cut).is_err());
        // A bad update record inside a batch.
        let bad = good.replace("dv 1", "dv one");
        assert!(Trace::parse(&bad).unwrap_err().contains("vertex id"));
        // Header/body disagreement after hand-editing.
        let bad = good.replace("phase warm updates=3", "phase warm updates=2");
        assert!(Trace::parse(&bad)
            .unwrap_err()
            .contains("summary disagrees"));
        // Trailing garbage after `end`.
        let bad = format!("{good}rogue\n");
        assert!(Trace::parse(&bad).unwrap_err().contains("trailing"));
    }

    #[test]
    fn numbers_are_refused_unless_spelled_as_rendered() {
        // Decimals render with `{}` and fingerprints with `{:016x}`: a sign,
        // a leading zero, an uppercase digit or a short or long hex token is
        // a different spelling of a value, and the parser refuses it rather
        // than render back different bytes.
        let good = demo_trace().render();
        for (from, to) in [
            ("seed 7\n", "seed +7\n"),
            ("seed 7\n", "seed 07\n"),
            ("n 4\n", "n 04\n"),
            ("m 3\n", "m +3\n"),
            ("warm updates=3", "warm updates=03"),
            ("serve updates=1 queries=3", "serve updates=1 queries=+3"),
            ("edges 3\n", "edges 03\n"),
            ("\n1 2\n", "\n1 +2\n"),
            ("batch update 3\n", "batch update +3\n"),
            ("batch query 3\n", "batch query 03\n"),
            ("de 1 2\n", "de +1 02\n"),
            ("iv 0 3\n", "iv 00 3\n"),
            ("iv 0 3\n", "iv 0 +3\n"),
            ("dv 1\n", "dv 01\n"),
            ("sc 0 3\n", "sc 0 03\n"),
            ("fp 2\n", "fp +2\n"),
            ("components 000000000000abcd", "components 000000000000ABCD"),
            ("components 000000000000abcd", "components abcd"),
            (
                "components 000000000000abcd",
                "components 0000000000000abcd",
            ),
            ("components 000000000000abcd", "components +00000000000abcd"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from:?} was not found");
            assert!(Trace::parse(&bad).is_err(), "{to:?} was accepted");
        }
    }

    #[test]
    fn counts_no_text_can_hold_are_errors_not_aborts() {
        // Every count is untrusted: the pre-allocation it sizes is bounded
        // by the text, so a count of 10^12 fails on the missing lines
        // instead of asking for terabytes up front.
        let good = demo_trace().render();
        let huge = 1_000_000_000_000u64;
        for (from, to) in [
            ("m 3\n", format!("m {huge}\n")),
            ("batch update 3\n", format!("batch update {huge}\n")),
            ("batch query 3\n", format!("batch query {huge}\n")),
        ] {
            let mut bad = good.replacen(from, &to, 1);
            if from.starts_with('m') {
                bad = bad.replacen("edges 3\n", &format!("edges {huge}\n"), 1);
            }
            assert_ne!(bad, good, "{from:?} was not found");
            assert!(Trace::parse(&bad).is_err(), "{to:?} was accepted");
        }
    }
}
