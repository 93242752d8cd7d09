//! Crash-safe campaign journals: an append-only JSONL record of completed
//! experiment outcomes, keyed by a content [`fingerprint`] of the spec, so
//! a killed `exaflow sweep`/`resilience` process can be restarted with
//! `--resume` and reconstruct its final report without redoing finished
//! work.
//!
//! Design constraints, in order:
//!
//! 1. **Crash safety.** Every outcome is appended as one complete line in
//!    a single `write` the moment its experiment finalises — never
//!    buffered until the end of a batch. A `SIGKILL` can tear at most the
//!    line being written; [`read_journal`] tolerates exactly that (an
//!    unparseable *final* segment with no trailing newline) and rejects
//!    any earlier corruption loudly.
//! 2. **Stable identity.** Entries are keyed by [`fingerprint`], a hash of
//!    the spec's *canonical* JSON (object keys sorted recursively), so the
//!    key survives serde round-trips, key-order permutations, and field
//!    reordering between program versions that keep the same spec shape.
//!    It is content-addressed, not index-addressed: editing one cell of a
//!    sweep file invalidates only that cell on resume.
//! 3. **Deterministic reconstruction.** A resumed suite merges journaled
//!    outcomes with freshly-run ones in input order; every deterministic
//!    report field (results, counters, makespans) is bit-identical to an
//!    uninterrupted run. Only wall-clock-derived fields can differ.
//!
//! Duplicate configs in one sweep share a fingerprint; the journal index
//! hands out their outcomes in journaled order, one per occurrence.

use crate::error::ExperimentError;
use crate::experiment::{ExperimentConfig, ExperimentResult};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;

/// One experiment outcome, `Ok` or typed `Err`, as the suite runner
/// produced it.
pub type JournaledOutcome = Result<ExperimentResult, ExperimentError>;

/// One line of the journal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Content fingerprint of the [`ExperimentConfig`] this outcome
    /// belongs to (see [`fingerprint`]).
    pub fingerprint: String,
    /// The finalised outcome.
    pub outcome: JournaledOutcome,
}

/// FNV-1a over `bytes`, from an arbitrary basis (the standard 64-bit
/// offset for the low half of the fingerprint, a displaced one for the
/// high half — two independent 64-bit streams over the same input).
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append `value` to `out` as canonical JSON: compact, object keys sorted
/// (recursively) by byte order. Scalar leaves reuse the workspace's JSON
/// printer so numbers and string escapes are formatted exactly as the
/// serializer would, keeping the canonical form in lockstep with what
/// `serde_json::to_string` produces for the same value.
fn write_canonical(value: &serde_json::Value, out: &mut String) {
    use serde_json::Value;
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            let mut pairs: Vec<(&String, &Value)> = map.iter().collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let quoted = serde_json::to_string(&Value::String((*key).clone()))
                    .expect("string serialization is infallible");
                out.push_str(&quoted);
                out.push(':');
                write_canonical(val, out);
            }
            out.push('}');
        }
        leaf => {
            out.push_str(&serde_json::to_string(leaf).expect("scalar serialization is infallible"))
        }
    }
}

/// Stable content fingerprint of an arbitrary JSON value: 128 bits (two
/// independent FNV-1a streams over the canonical JSON), printed as 32 hex
/// characters. Two values get the same fingerprint iff their canonical
/// JSON forms are byte-identical — i.e. they describe the same content
/// regardless of key order or serde round-trips. This is the keying
/// primitive shared by the campaign journal ([`fingerprint`]) and the
/// topology cache (`crate::topocache`).
pub fn fingerprint_value(value: &serde_json::Value) -> String {
    let mut canon = String::new();
    write_canonical(value, &mut canon);
    let lo = fnv1a64(canon.as_bytes(), 0xCBF2_9CE4_8422_2325);
    let hi = fnv1a64(
        canon.as_bytes(),
        0xCBF2_9CE4_8422_2325 ^ 0x9E37_79B9_7F4A_7C15,
    );
    format!("{hi:016x}{lo:016x}")
}

/// Stable content fingerprint of an experiment spec (see
/// [`fingerprint_value`] for the hash construction).
pub fn fingerprint(cfg: &ExperimentConfig) -> String {
    let value = serde_json::to_value(cfg).expect("config serialization is infallible");
    fingerprint_value(&value)
}

/// Append-only journal writer.
///
/// Each [`record`](Journal::record) serialises the entry to one line and
/// hands the whole line (including its terminating newline) to the OS in a
/// single `write`, then flushes — so a crash between records loses
/// nothing, and a crash mid-record tears only the final line, which the
/// reader tolerates.
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Open `path` for appending. With `truncate`, any existing contents
    /// are discarded first — a fresh campaign must not inherit entries
    /// from an unrelated earlier one (resume passes `truncate = false`).
    /// When appending, a torn final line left by a killed writer is
    /// trimmed first: appending after a partial line would weld the next
    /// record onto it and corrupt both.
    pub fn open(path: &Path, truncate: bool) -> std::io::Result<Journal> {
        if !truncate {
            if let Ok(bytes) = std::fs::read(path) {
                if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
                    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len(keep as u64)?;
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(!truncate)
            .write(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Journal { file })
    }

    /// Append one finalised outcome under `fingerprint`.
    pub fn record(&mut self, fingerprint: &str, outcome: &JournaledOutcome) -> std::io::Result<()> {
        let entry = JournalEntry {
            fingerprint: fingerprint.to_owned(),
            outcome: outcome.clone(),
        };
        let mut line = serde_json::to_string(&entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        // One write for the whole line: the journal's only torn state is a
        // partial final line, which read_journal discards.
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// Read every complete entry of a journal file.
///
/// A final segment that does not parse **and** is not newline-terminated
/// is treated as a torn write from a killed process and silently dropped;
/// an unparseable line anywhere else (or a complete-but-corrupt final
/// line) is an `InvalidData` error — mid-journal corruption must never be
/// mistaken for a shorter campaign.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalEntry>> {
    let text = std::fs::read_to_string(path)?;
    let complete_tail = text.ends_with('\n');
    let lines: Vec<&str> = text
        .split('\n')
        .filter(|line| !line.trim().is_empty())
        .collect();
    let mut entries = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<JournalEntry>(line) {
            Ok(entry) => entries.push(entry),
            Err(_) if i + 1 == lines.len() && !complete_tail => break,
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: corrupt journal line {}: {e}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(entries)
}

/// Journaled outcomes indexed by fingerprint, consumed in journaled order
/// (duplicate configs in one sweep each take the next outcome in turn).
#[derive(Debug, Default)]
pub struct JournalIndex {
    map: HashMap<String, VecDeque<JournaledOutcome>>,
    entries: usize,
}

impl JournalIndex {
    /// Load `path`, returning an empty index when the file does not exist
    /// yet (first run of a campaign started with `--resume`).
    pub fn load(path: &Path) -> std::io::Result<JournalIndex> {
        if !path.exists() {
            return Ok(JournalIndex::default());
        }
        let mut index = JournalIndex::default();
        for entry in read_journal(path)? {
            index
                .map
                .entry(entry.fingerprint)
                .or_default()
                .push_back(entry.outcome);
            index.entries += 1;
        }
        Ok(index)
    }

    /// Take the next journaled outcome for `fingerprint`, if any.
    pub fn take(&mut self, fingerprint: &str) -> Option<JournaledOutcome> {
        let taken = self.map.get_mut(fingerprint)?.pop_front();
        if taken.is_some() {
            self.entries -= 1;
        }
        taken
    }

    /// Outcomes still available.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no journaled outcome remains unclaimed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MappingSpec;
    use crate::topospec::TopologySpec;
    use exaflow_sim::SimConfig;
    use exaflow_workloads::WorkloadSpec;

    fn cfg(tasks: usize) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologySpec::Torus { dims: vec![4, 4] },
            workload: WorkloadSpec::AllReduce {
                tasks,
                bytes: 1 << 16,
            },
            mapping: MappingSpec::Linear,
            sim: SimConfig::default(),
            failures: None,
            fault_injection: None,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("exaflow-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn fingerprint_ignores_key_order() {
        let a = cfg(8);
        // Round-trip through JSON with every object's keys reversed.
        fn reverse_keys(v: &serde_json::Value) -> serde_json::Value {
            use serde_json::{Map, Value};
            match v {
                Value::Object(map) => {
                    let mut out = Map::new();
                    let pairs: Vec<_> = map.iter().collect();
                    for (k, val) in pairs.into_iter().rev() {
                        out.insert(k.clone(), reverse_keys(val));
                    }
                    Value::Object(out)
                }
                Value::Array(items) => Value::Array(items.iter().map(reverse_keys).collect()),
                leaf => leaf.clone(),
            }
        }
        let permuted =
            serde_json::to_string(&reverse_keys(&serde_json::to_value(&a).unwrap())).unwrap();
        let b: ExperimentConfig = serde_json::from_str(&permuted).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&cfg(16)));
        assert_eq!(fingerprint(&a).len(), 32);
    }

    #[test]
    fn journal_roundtrips_ok_and_err_outcomes() {
        let path = tmp("roundtrip.jsonl");
        let ok: JournaledOutcome = Ok(crate::run_experiment(&cfg(8)).unwrap());
        let err: JournaledOutcome = Err(ExperimentError::Panicked {
            message: "boom".into(),
        });
        let mut j = Journal::open(&path, true).unwrap();
        j.record("aa", &ok).unwrap();
        j.record("bb", &err).unwrap();
        drop(j);
        let entries = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].fingerprint, "aa");
        assert_eq!(entries[0].outcome, ok);
        assert_eq!(entries[1].outcome, err);

        // Reopening without truncation appends; with truncation resets.
        let mut j = Journal::open(&path, false).unwrap();
        j.record("cc", &err).unwrap();
        drop(j);
        assert_eq!(read_journal(&path).unwrap().len(), 3);
        Journal::open(&path, true).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_but_midfile_corruption_is_loud() {
        let path = tmp("torn.jsonl");
        let ok: JournaledOutcome = Ok(crate::run_experiment(&cfg(8)).unwrap());
        let mut j = Journal::open(&path, true).unwrap();
        j.record("aa", &ok).unwrap();
        j.record("bb", &ok).unwrap();
        drop(j);

        // Tear the final line mid-way, as a SIGKILL mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 17;
        std::fs::write(&path, &text[..cut]).unwrap();
        let entries = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].fingerprint, "aa");

        // Reopening for append trims the torn tail first, so the next
        // record lands on its own line instead of welding onto the tear.
        let mut j = Journal::open(&path, false).unwrap();
        j.record("cc", &ok).unwrap();
        drop(j);
        let entries = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].fingerprint, "cc");

        // The same garbage followed by a newline is corruption, not a tear,
        // and so is an outcome kind this version no longer has: a
        // journal holding a quarantined entry cannot be resumed.
        let quarantined =
            r#"{"fingerprint": "bb", "outcome": {"Err": {"kind": "quarantined", "attempts": []}}}"#;
        let (first, torn) = text[..cut].split_once('\n').unwrap();
        for second in [torn, quarantined] {
            std::fs::write(&path, format!("{first}\n{second}\n")).unwrap();
            let err = read_journal(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("corrupt journal line 2"), "{err}");
            let err = JournalIndex::load(&path).unwrap_err();
            assert!(err.to_string().contains("corrupt journal line 2"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_hands_out_duplicates_in_journal_order() {
        let path = tmp("dups.jsonl");
        let first: JournaledOutcome = Ok(crate::run_experiment(&cfg(8)).unwrap());
        let mut second = first.clone();
        if let Ok(r) = &mut second {
            r.flows += 1; // distinguishable copy
        }
        let mut j = Journal::open(&path, true).unwrap();
        j.record("dup", &first).unwrap();
        j.record("dup", &second).unwrap();
        drop(j);
        let mut index = JournalIndex::load(&path).unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index.take("dup"), Some(first));
        assert_eq!(index.take("dup"), Some(second));
        assert_eq!(index.take("dup"), None);
        assert!(index.is_empty());
        assert_eq!(index.take("absent"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_loads_empty() {
        let index = JournalIndex::load(&tmp("never-created.jsonl")).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
    }
}
