//! The write-ahead-log record format (`pardfs-wal v1`): trace-as-WAL.
//!
//! A WAL is plain UTF-8 text, like a trace — and deliberately *of* the trace
//! format (normative spec: `docs/FORMATS.md` at the repository root): each record's **body** is a valid `pardfs-trace v1` body segment
//! (a `batch update <k>` block in the canonical rendering of
//! [`trace`](crate::trace), followed by a `fingerprint tree <hex16>` line),
//! so a WAL can be read with the same eyes (and mostly the same parser) as
//! the checked-in corpus traces, and the logged batches replay through the
//! ordinary [`ScenarioRunner`](crate::ScenarioRunner) machinery.
//!
//! ## Format
//!
//! ```text
//! pardfs-wal v1                    # magic + format version
//! record <epoch> <len> <crc16hex>  # framing: epoch id, body byte length,
//!                                  #   FNV-1a 64 over "epoch <epoch>\n"+body
//! batch update <k>                 #   body: trace-v1 update batch ...
//! ie <u> <v>                       #   ... in canonical rendering
//! fingerprint tree <hex16>         #   post-commit tree fingerprint
//! sync                             # durability boundary (group commit)
//! ```
//!
//! The `record` header carries the body length *in bytes* so a reader can
//! frame the body without trusting its content, and a checksum so it can
//! detect damage. The checksum covers the epoch id too (via the `epoch
//! <epoch>\n` prefix), so a corrupted epoch token cannot masquerade as a
//! clean record of a different epoch.
//!
//! ## Torn tails versus interior corruption
//!
//! A crash mid-append legitimately leaves a half-written final record; a
//! flipped byte in the *middle* of the log means the storage lied about
//! previously synced data. [`parse_wal`] distinguishes the two by **resync
//! scanning**: when a record fails to frame or checksum, it looks ahead for
//! any later record that parses completely. If one exists the damage is
//! interior — a hard [`WalError::Corrupt`] naming the epoch; if nothing
//! valid follows, the failure is a torn tail — the broken suffix is dropped
//! and recovery proceeds to the last complete epoch ([`WalParse`] reports
//! where the verified prefix ends).

use crate::trace::{canonical_hex, canonical_num, parse_update, render_update};
use pardfs_graph::snap::{fnv1a64, FNV_OFFSET};
use pardfs_graph::Update;
use std::fmt::Write as _;

/// The magic first line of every WAL file.
pub const WAL_MAGIC: &str = "pardfs-wal v1";

/// The record checksum: byte-wise FNV-1a 64 over `"epoch <epoch>\n"` + body.
fn checksum(epoch: u64, body: &str) -> u64 {
    let head = fnv1a64(FNV_OFFSET, format!("epoch {epoch}\n").as_bytes());
    fnv1a64(head, body.as_bytes())
}

/// One durable WAL record: the update batch committed as `epoch`, plus the
/// fingerprint of the maintained tree *after* the batch was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this batch committed as (first update batch = epoch 1;
    /// epoch 0 is the initial published state and is never logged).
    pub epoch: u64,
    /// The committed updates, in application order (user vertex ids).
    pub updates: Vec<Update>,
    /// Fingerprint of the maintained DFS tree after the batch — recovery
    /// verifies replay against this, per batch.
    pub fingerprint: u64,
}

impl WalRecord {
    /// Render the record **body**: a valid `pardfs-trace v1` body segment
    /// (canonical `batch update <k>` block + `fingerprint tree <hex16>`).
    pub fn render_body(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "batch update {}", self.updates.len());
        for u in &self.updates {
            let _ = writeln!(out, "{}", render_update(u));
        }
        let _ = writeln!(out, "fingerprint tree {:016x}", self.fingerprint);
        out
    }

    /// Render the full framed record: `record` header, body, `sync` line.
    pub fn render(&self) -> String {
        let body = self.render_body();
        format!(
            "record {} {} {:016x}\n{body}sync\n",
            self.epoch,
            body.len(),
            checksum(self.epoch, &body)
        )
    }

    /// Parse a record body (the text between the `record` header and the
    /// `sync` line) back into updates + fingerprint. The body must be in
    /// canonical rendering: [`WalRecord::render_body`] of the result is
    /// byte-identical to the input.
    pub fn parse_body(epoch: u64, body: &str) -> Result<WalRecord, String> {
        let mut lines = body.lines().enumerate().map(|(i, l)| (i + 1, l));
        let (no, head) = lines
            .next()
            .ok_or_else(|| "empty record body".to_string())?;
        let count: usize = head
            .strip_prefix("batch update ")
            .and_then(canonical_num)
            .ok_or_else(|| format!("body line {no}: expected `batch update <k>`, got `{head}`"))?;
        // The count is untrusted (a checksum is not a MAC): every update
        // takes at least one byte of the body, so that bounds the allocation.
        let mut updates = Vec::with_capacity(count.min(body.len()));
        for _ in 0..count {
            let line = lines
                .next()
                .ok_or_else(|| "record body truncated inside its batch".to_string())?;
            updates.push(parse_update(line)?);
        }
        let (no, fp_line) = lines
            .next()
            .ok_or_else(|| "record body missing its fingerprint line".to_string())?;
        let fingerprint = fp_line
            .strip_prefix("fingerprint tree ")
            .and_then(canonical_hex)
            .ok_or_else(|| {
                format!("body line {no}: expected `fingerprint tree <hex16>`, got `{fp_line}`")
            })?;
        if let Some((no, extra)) = lines.next() {
            return Err(format!("body line {no}: trailing content `{extra}`"));
        }
        Ok(WalRecord {
            epoch,
            updates,
            fingerprint,
        })
    }
}

/// Render a complete WAL file: magic line + every record framed in order.
pub fn render_wal(records: &[WalRecord]) -> String {
    let mut out = String::with_capacity(64 * (records.len() + 1));
    out.push_str(WAL_MAGIC);
    out.push('\n');
    for r in records {
        out.push_str(&r.render());
    }
    out
}

/// The outcome of parsing a WAL file: the complete records, plus what (if
/// anything) was dropped from a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalParse {
    /// Every complete, checksum-verified record, in log order.
    pub records: Vec<WalRecord>,
    /// Number of torn records dropped from the tail (0 or 1 — a single
    /// crash tears at most the record being appended).
    pub torn_records_dropped: u64,
    /// Byte length of the verified prefix (the magic line and every record
    /// in `records`): the whole text when the log ended cleanly, else the
    /// offset where the torn record starts. The prefix framed as ASCII, so a
    /// lossy decoding of the file left it untouched and the length is also
    /// an offset into the raw bytes, where recovery truncates.
    pub valid_len: usize,
}

/// A WAL that cannot be recovered from, as opposed to a torn tail (which
/// [`parse_wal`] silently drops and reports in [`WalParse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The file does not start with the `pardfs-wal v1` magic line.
    NotAWal(String),
    /// Interior corruption: a damaged record is *followed by* intact
    /// records, so the damage is not a crash-torn tail — the storage lost
    /// synced data. Recovery must not silently skip it.
    Corrupt {
        /// The epoch of the damaged record, as best the frame identifies it
        /// (`None` when the header itself is unreadable).
        epoch: Option<u64>,
        /// What exactly failed.
        detail: String,
    },
    /// Records are present but their epochs are not contiguous — the log
    /// was spliced or a whole record was lost.
    EpochGap {
        /// Epoch of the record before the gap.
        after: u64,
        /// Epoch actually found next.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::NotAWal(got) => {
                write!(f, "not a pardfs WAL (expected `{WAL_MAGIC}`, got `{got}`)")
            }
            WalError::Corrupt { epoch, detail } => match epoch {
                Some(e) => write!(f, "WAL record for epoch {e} is corrupt: {detail}"),
                None => write!(f, "WAL record with unreadable header is corrupt: {detail}"),
            },
            WalError::EpochGap { after, found } => write!(
                f,
                "WAL epoch gap: record {found} follows record {after} (expected {})",
                after + 1
            ),
        }
    }
}

/// What one framing attempt at a given offset produced.
enum Frame {
    /// A complete, checksum-verified record ending at `next` (byte offset).
    Ok(WalRecord, usize),
    /// The bytes at this offset cannot be a complete record; `detail` says
    /// why and `epoch` is the header's epoch when the header was readable.
    Broken { epoch: Option<u64>, detail: String },
}

/// Attempt to frame one record at byte offset `at` of `text`.
fn frame_record(text: &str, at: usize) -> Frame {
    let rest = &text[at..];
    let Some(header_end) = rest.find('\n') else {
        return Frame::Broken {
            epoch: None,
            detail: "unterminated record header".into(),
        };
    };
    let header = &rest[..header_end];
    let mut it = header
        .strip_prefix("record ")
        .map(|r| r.split(' '))
        .into_iter()
        .flatten();
    let epoch: Option<u64> = it.next().and_then(canonical_num);
    let len: Option<usize> = it.next().and_then(canonical_num);
    let crc: Option<u64> = it.next().and_then(canonical_hex);
    let (Some(epoch), Some(len), Some(crc), None) = (epoch, len, crc, it.next()) else {
        return Frame::Broken {
            epoch,
            detail: format!("malformed record header `{header}`"),
        };
    };
    let body_start = header_end + 1;
    let Some(body) = body_start
        .checked_add(len)
        .and_then(|body_end| rest.get(body_start..body_end))
    else {
        return Frame::Broken {
            epoch: Some(epoch),
            detail: format!(
                "body truncated ({} of {len} bytes)",
                rest.len() - body_start
            ),
        };
    };
    if checksum(epoch, body) != crc {
        return Frame::Broken {
            epoch: Some(epoch),
            detail: "checksum mismatch".into(),
        };
    }
    let after_body = body_start + len;
    if !rest[after_body..].starts_with("sync\n") {
        return Frame::Broken {
            epoch: Some(epoch),
            detail: "missing `sync` line after body".into(),
        };
    }
    match WalRecord::parse_body(epoch, body) {
        Ok(record) => Frame::Ok(record, at + after_body + "sync\n".len()),
        // Checksum passed but the body is not a canonical batch segment:
        // that is never a torn write, always a writer bug / tamper.
        Err(detail) => Frame::Broken {
            epoch: Some(epoch),
            detail: format!("body is not a canonical trace segment: {detail}"),
        },
    }
}

/// Does any complete record exist at or after byte offset `from`? (The
/// resync scan that discriminates interior corruption from a torn tail.)
///
/// The scan walks bytes: `from` may fall inside a multi-byte character (a
/// damaged byte that lossy decoding replaced), while a candidate header
/// starts with an ASCII `r`, which is always a character boundary.
fn any_complete_record_after(text: &str, from: usize) -> bool {
    let bytes = text.as_bytes();
    (from..bytes.len()).any(|cand| {
        // Only line-initial `record ` tokens are candidate headers.
        (cand == 0 || bytes[cand - 1] == b'\n')
            && bytes[cand..].starts_with(b"record ")
            && matches!(frame_record(text, cand), Frame::Ok(..))
    })
}

/// Parse a WAL file's full text.
///
/// Returns every complete record (in order, epochs verified contiguous)
/// plus a report of any torn tail dropped. Fails with [`WalError::Corrupt`]
/// when a damaged record is followed by intact ones — see the module docs
/// for the discrimination rule.
pub fn parse_wal(text: &str) -> Result<WalParse, WalError> {
    let Some(first_nl) = text.find('\n') else {
        return Err(WalError::NotAWal(text.trim_end().to_string()));
    };
    if &text[..first_nl] != WAL_MAGIC {
        return Err(WalError::NotAWal(text[..first_nl].to_string()));
    }
    let mut at = first_nl + 1;
    let mut records: Vec<WalRecord> = Vec::new();
    let mut torn_records_dropped = 0;
    while at < text.len() {
        match frame_record(text, at) {
            Frame::Ok(record, next) => {
                if let Some(prev) = records.last() {
                    if record.epoch != prev.epoch + 1 {
                        return Err(WalError::EpochGap {
                            after: prev.epoch,
                            found: record.epoch,
                        });
                    }
                }
                records.push(record);
                at = next;
            }
            Frame::Broken { epoch, detail } => {
                if any_complete_record_after(text, at + 1) {
                    return Err(WalError::Corrupt { epoch, detail });
                }
                torn_records_dropped = 1;
                break;
            }
        }
    }
    Ok(WalParse {
        records,
        torn_records_dropped,
        valid_len: at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardfs_graph::generators::random_connected_gnm;
    use pardfs_graph::updates::{random_update_sequence, UpdateMix};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn demo_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                epoch: 1,
                updates: vec![
                    Update::DeleteEdge(1, 2),
                    Update::InsertVertex { edges: vec![0, 3] },
                ],
                fingerprint: 0xdead_beef,
            },
            WalRecord {
                epoch: 2,
                updates: vec![Update::InsertEdge(0, 4), Update::DeleteVertex(1)],
                fingerprint: 0x1234_5678_9abc_def0,
            },
            WalRecord {
                epoch: 3,
                updates: vec![Update::InsertVertex { edges: vec![] }],
                fingerprint: 7,
            },
        ]
    }

    #[test]
    fn wal_round_trips_byte_identically() {
        let records = demo_records();
        let text = render_wal(&records);
        let parsed = parse_wal(&text).expect("clean WAL parses");
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.torn_records_dropped, 0);
        assert_eq!(parsed.valid_len, text.len());
        assert_eq!(render_wal(&parsed.records), text);
    }

    #[test]
    fn record_bodies_are_valid_trace_segments() {
        // Splicing every record body into a trace skeleton must yield a
        // parseable trace whose update batches are the logged batches —
        // the "trace-as-WAL" contract.
        let records = demo_records();
        let mut body = String::new();
        let mut summary = String::new();
        let total: usize = records.iter().map(|r| r.updates.len()).sum();
        summary.push_str(&format!("phase wal updates={total} queries=0\n"));
        body.push_str("!phase wal\n");
        for r in &records {
            // Strip the `fingerprint tree` trailer: inside a trace body,
            // fingerprints live after the batches. The batch block itself
            // is spliced verbatim.
            let rendered = r.render_body();
            let batch = rendered
                .rsplit_once("fingerprint tree ")
                .map(|(head, _)| head)
                .unwrap();
            body.push_str(batch);
        }
        let text = format!(
            "pardfs-trace v1\nscenario wal\nseed 0\nn 8\nm 0\n{summary}edges 0\nbody\n{body}end\n"
        );
        let trace = crate::Trace::parse(&text).expect("spliced WAL bodies parse as a trace");
        let replayed: Vec<Update> = trace.phases[0]
            .batches
            .iter()
            .flat_map(|b| match b {
                crate::TraceBatch::Updates(u) => u.clone(),
                crate::TraceBatch::Queries(_) => unreachable!(),
            })
            .collect();
        let logged: Vec<Update> = records.iter().flat_map(|r| r.updates.clone()).collect();
        assert_eq!(replayed, logged);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_truncation_offset() {
        let records = demo_records();
        let text = render_wal(&records);
        let last_start = text.find("record 3").unwrap();
        // Truncating anywhere inside the final record (or just before it)
        // always recovers the first two records and reports the tear.
        for cut in last_start..text.len() {
            let parsed = parse_wal(&text[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must stay recoverable, got {e}"));
            let torn = u64::from(cut > last_start);
            assert_eq!(parsed.torn_records_dropped, torn, "cut at {cut}");
            assert_eq!(parsed.valid_len, last_start, "cut at {cut}");
            assert_eq!(parsed.records, records[..2], "cut at {cut}");
        }
    }

    #[test]
    fn interior_corruption_is_a_hard_error_naming_the_epoch() {
        let records = demo_records();
        let text = render_wal(&records);
        // Flip one body byte of record 2 (epoch 2): the `ie 0 4` update.
        let bad = text.replace("ie 0 4", "ie 0 5");
        let err = parse_wal(&bad).expect_err("interior damage must not be skipped");
        match err {
            WalError::Corrupt { epoch, detail } => {
                assert_eq!(epoch, Some(2));
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The same damage in the *final* record is a torn tail instead.
        let bad_tail = text.replace("iv\nfingerprint", "ix\nfingerprint");
        assert_ne!(bad_tail, text, "the final record's body was targeted");
        let parsed = parse_wal(&bad_tail).expect("damaged tail is recoverable");
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.torn_records_dropped, 1);
    }

    #[test]
    fn checksum_covers_the_epoch_id() {
        let records = demo_records();
        let text = render_wal(&records);
        // Corrupt epoch 2's *header epoch token* only. The body is intact,
        // but the checksum binds the epoch id, so the record cannot pass
        // itself off as epoch 4 — and with intact records following, that
        // is interior corruption.
        let bad = text.replacen("record 2 ", "record 4 ", 1);
        let err = parse_wal(&bad).expect_err("forged epoch id must fail");
        assert!(
            matches!(err, WalError::Corrupt { epoch: Some(4), .. }),
            "{err:?}"
        );
    }

    #[test]
    fn epoch_gaps_are_rejected() {
        let mut records = demo_records();
        records[2].epoch = 5; // splice: 1, 2, 5
        let text = render_wal(&records);
        let err = parse_wal(&text).expect_err("gapped epochs must fail");
        assert_eq!(err, WalError::EpochGap { after: 2, found: 5 });
        assert!(err.to_string().contains("expected 3"), "{err}");
    }

    #[test]
    fn non_wal_files_are_rejected() {
        assert!(matches!(parse_wal(""), Err(WalError::NotAWal(_))));
        assert!(matches!(
            parse_wal("pardfs-trace v1\n"),
            Err(WalError::NotAWal(_))
        ));
    }

    #[test]
    fn worked_example_in_formats_md_is_byte_stable() {
        // docs/FORMATS.md's WAL example, and so every WAL already on disk:
        // render and parse share the checksum, so only a pinned byte string
        // notices a change to it.
        let record = WalRecord {
            epoch: 5,
            updates: vec![Update::InsertEdge(3, 7), Update::DeleteEdge(3, 7)],
            fingerprint: 0x1b2c_3d4e_5f60_7182,
        };
        let expect = "record 5 63 5cfc59ccdd405b88\n\
                      batch update 2\n\
                      ie 3 7\n\
                      de 3 7\n\
                      fingerprint tree 1b2c3d4e5f607182\n\
                      sync\n";
        assert_eq!(record.render(), expect);
    }

    /// Every byte of a seeded multi-record WAL, replaced by each hostile
    /// value and decoded the way recovery decodes the file
    /// (`from_utf8_lossy`, which turns a stray high byte into a 3-byte
    /// U+FFFD): the parser answers every time. Damage before the intact
    /// final record (and the newline that opens its header) is an error,
    /// never a shorter log; damage from there on is a torn tail, and the
    /// verified prefix it reports is, byte for byte, the raw file's prefix
    /// that renders the records kept.
    #[test]
    fn every_mutated_byte_is_an_error_or_a_torn_tail_never_a_panic() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let graph = random_connected_gnm(12, 30, &mut rng);
        let updates = random_update_sequence(&graph, 10, &UpdateMix::default(), &mut rng);
        let records: Vec<WalRecord> = updates
            .chunks(3)
            .zip(1..)
            .map(|(batch, epoch)| WalRecord {
                epoch,
                updates: batch.to_vec(),
                fingerprint: rng.gen(),
            })
            .collect();
        let clean = render_wal(&records).into_bytes();
        let final_start = clean.len() - records.last().unwrap().render().len();
        let final_line = final_start - 1;
        let assert_torn_tail = |bytes: &[u8], ctx: &str| {
            let parsed = parse_wal(&String::from_utf8_lossy(bytes))
                .unwrap_or_else(|e| panic!("{ctx}: torn tail refused: {e}"));
            assert!(parsed.records.len() < records.len(), "{ctx}: damage missed");
            assert!(records.starts_with(&parsed.records), "{ctx}");
            let kept = render_wal(&parsed.records);
            assert_eq!(parsed.valid_len, kept.len(), "{ctx}");
            assert_eq!(
                &bytes[..kept.len()],
                kept.as_bytes(),
                "{ctx}: not a raw prefix"
            );
        };
        for at in 0..clean.len() {
            for value in [0x00, b'\n', b' ', 0x7F, 0x80, 0xC3, 0xFF] {
                if clean[at] == value {
                    continue;
                }
                let mut bytes = clean.clone();
                bytes[at] = value;
                let ctx = format!("byte {at} of {} set to {value:#04x}", clean.len());
                if at < final_line {
                    let parsed = parse_wal(&String::from_utf8_lossy(&bytes));
                    assert!(parsed.is_err(), "{ctx}: damage became {parsed:?}");
                } else {
                    assert_torn_tail(&bytes, &ctx);
                }
            }
        }
        // A run of high bytes over the final record's header: each becomes
        // a U+FFFD, so the decoded text outgrows the file by two bytes per
        // byte of the run, and none of that may leak into the prefix.
        for run in 1..=clean.len() - final_start {
            let mut bytes = clean.clone();
            bytes[final_start..final_start + run].fill(0xFF);
            let ctx = format!("{run} bytes 0xff from the final header");
            assert_torn_tail(&bytes, &ctx);
            let parsed = parse_wal(&String::from_utf8_lossy(&bytes)).unwrap();
            assert_eq!(parsed.valid_len, final_start, "{ctx}");
        }
    }

    #[test]
    fn hostile_lengths_and_counts_are_refused_without_panicking() {
        let records = demo_records();
        let text = render_wal(&records);
        let len = records[1].render_body().len();
        let header = format!("record 2 {len} ");
        let huge_lengths = [
            usize::MAX.to_string(),
            (usize::MAX - 1).to_string(),
            (usize::MAX - 8).to_string(),
            (usize::MAX / 2 + 1).to_string(),
            "18446744073709551616".to_string(), // u64::MAX + 1: not a usize
        ];
        for huge in &huge_lengths {
            let bad = text.replacen(&header, &format!("record 2 {huge} "), 1);
            let err = parse_wal(&bad).expect_err("an interior record with a huge length");
            assert!(matches!(err, WalError::Corrupt { .. }), "{huge}: {err:?}");
            // The same header on the final record is a torn tail.
            let tail = &bad[..text.find("record 3").unwrap()];
            let parsed = parse_wal(tail).expect("a torn final record");
            assert_eq!(parsed.records, records[..1], "{huge}");
        }
        // A checksum is not a MAC: a forged body can pass it while claiming a
        // batch no body could hold.
        for count in ["1000000000000", &usize::MAX.to_string()] {
            let body = format!("batch update {count}\nie 0 4\nfingerprint tree 0000000000000007\n");
            let forged = format!(
                "record 2 {} {:016x}\n{body}sync\n",
                body.len(),
                checksum(2, &body)
            );
            let start = text.find("record 2").unwrap();
            let end = text.find("record 3").unwrap();
            let bad = format!("{}{forged}{}", &text[..start], &text[end..]);
            match parse_wal(&bad) {
                Err(WalError::Corrupt { epoch, detail }) => {
                    assert_eq!(epoch, Some(2));
                    assert!(detail.contains("canonical"), "{detail}");
                }
                other => panic!("forged count {count}: {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_are_refused_unless_spelled_as_rendered() {
        // Each record is reframed with a recomputed checksum and length, so
        // only the spelling of one number differs from a valid record.
        let records: Vec<WalRecord> = (1..=3)
            .map(|epoch| WalRecord {
                epoch,
                updates: vec![
                    Update::InsertEdge(3, 7),
                    Update::InsertVertex { edges: vec![1, 2] },
                ],
                fingerprint: 0xabc,
            })
            .collect();
        let body = records[0].render_body();
        let bodies = [
            ("batch update 2", "batch update 02"),
            ("batch update 2", "batch update +2"),
            ("ie 3 7", "ie +3 07"),
            ("iv 1 2", "iv 01 2"),
            ("iv 1 2", "iv 1 +2"),
            ("tree 0000000000000abc", "tree 0000000000000ABC"),
            ("tree 0000000000000abc", "tree abc"),
            ("tree 0000000000000abc", "tree 00000000000000abc"),
            ("tree 0000000000000abc", "tree +000000000000abc"),
        ]
        .map(|(from, to)| {
            let bad = body.replacen(from, to, 1);
            assert_ne!(bad, body, "{from:?} was not found");
            assert!(
                WalRecord::parse_body(1, &bad).is_err(),
                "{to:?} was accepted"
            );
            bad
        });
        // A record of `epoch` whose header spells its numbers as `header`
        // does, given the epoch, the body length and the checksum.
        type Header = fn(u64, usize, u64) -> String;
        let headers: [Header; 6] = [
            |e, len, crc| format!("record 0{e} {len} {crc:016x}"),
            |e, len, crc| format!("record +{e} {len} {crc:016x}"),
            |e, len, crc| format!("record {e} 0{len} {crc:016x}"),
            |e, len, crc| format!("record {e} +{len} {crc:016x}"),
            |e, len, crc| format!("record {e} {len} {crc:016X}"),
            |e, len, crc| format!("record {e} {len} 0{crc:016x}"),
        ];
        let canonical: Header = |e, len, crc| format!("record {e} {len} {crc:016x}");
        let mut cases: Vec<(Header, &str)> = headers.iter().map(|&h| (h, &body[..])).collect();
        cases.extend(bodies.iter().map(|b| (canonical, &b[..])));
        for (header, body) in cases {
            for at in [2, 3] {
                let damaged = format!(
                    "{}\n{body}sync\n",
                    header(at, body.len(), checksum(at, body))
                );
                let text: String = std::iter::once(format!("{WAL_MAGIC}\n"))
                    .chain(records.iter().map(|r| {
                        if r.epoch == at {
                            damaged.clone()
                        } else {
                            r.render()
                        }
                    }))
                    .collect();
                assert_ne!(text, render_wal(&records), "{damaged:?} is canonical");
                let parsed = parse_wal(&text);
                if at == 2 {
                    assert!(
                        matches!(parsed, Err(WalError::Corrupt { .. })),
                        "interior {damaged:?}: {parsed:?}"
                    );
                } else {
                    let parsed = parsed.expect("a damaged final record is a torn tail");
                    assert_eq!(parsed.records, records[..2], "final {damaged:?}");
                    assert_eq!(parsed.torn_records_dropped, 1, "final {damaged:?}");
                }
            }
        }
    }

    #[test]
    fn empty_wal_is_clean() {
        let parsed = parse_wal("pardfs-wal v1\n").expect("magic-only WAL parses");
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.torn_records_dropped, 0);
    }
}
