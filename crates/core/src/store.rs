//! `core::store` — the content-addressed on-disk point store behind
//! checkpoint/resume.
//!
//! A characterization campaign at Columbia scale is hours of sweep
//! points; an interrupted `repro` run used to restart from zero. This
//! store persists every completed [`PointOutput`] under a canonical
//! content hash, so `repro --resume` skips finished points, and —
//! because collation is already deterministic in sweep-index order — a
//! killed-and-resumed run is **byte-identical** to an uninterrupted one
//! (the golden suite and the CI resume smoke gate check exactly that).
//!
//! # Key derivation
//!
//! The store key is a 128-bit FNV-1a hash over a canonical byte string:
//!
//! ```text
//! columbia-point-store-v1 \0 <experiment> \0 <plan fingerprint> \0 <sweep index>
//! ```
//!
//! where the plan fingerprint ([`crate::sweep::SweepPlan::fingerprint`])
//! folds in the plan's *shape* — id, title, headers, and point count —
//! not its parameters. Change the shape and the key moves, orphaning
//! stale entries instead of serving them. A spec edited without
//! changing its shape (a different class, fabric, or seed at the same
//! point count) keeps its keys, so the store would serve the old
//! results: run an edited spec against a fresh `--checkpoint-dir`. The
//! versioned domain prefix lets the format evolve without ever
//! misreading an old entry.
//!
//! # Durability
//!
//! Writes are atomic: the entry is serialized to a process-unique
//! `*.tmp` sibling and `rename`d into place, so a kill mid-write leaves
//! either the complete entry or a stray temp file — never a torn entry
//! under the final name. Loads treat missing, truncated, corrupt, or
//! version-mismatched files as cache misses (the point simply re-runs),
//! which is what makes resuming from a violently truncated checkpoint
//! directory safe.
//!
//! Collation scalars (`PointOutput::values`) round-trip **bit-exactly**
//! — they are stored as hex-encoded IEEE-754 bit patterns, not decimal
//! — because the degraded sweep's slowdown column divides by them and
//! byte-identity of the resumed report depends on every bit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use columbia_obs::host::{HostCapture, HostTrack};
use serde_json::Value;

use crate::sweep::PointOutput;

/// Store format version, folded into both the key domain and the entry
/// payload. Bump when the serialization or key derivation changes.
pub const STORE_VERSION: u64 = 1;

/// The canonical identity of one sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointKey {
    /// Experiment id (`repro --exp` name or `--spec` file stem, or the
    /// plan id for ad-hoc sweeps).
    pub experiment: String,
    /// Fingerprint of the owning plan's shape
    /// ([`crate::sweep::SweepPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Sweep index of the point within the plan.
    pub index: usize,
}

impl PointKey {
    /// The 128-bit content hash naming this point on disk.
    pub fn content_hash(&self) -> u128 {
        let mut h = Fnv128::new();
        h.update(b"columbia-point-store-v");
        h.update(STORE_VERSION.to_string().as_bytes());
        h.update(b"\0");
        h.update(self.experiment.as_bytes());
        h.update(b"\0");
        h.update(&self.fingerprint.to_le_bytes());
        h.update(b"\0");
        h.update(&(self.index as u64).to_le_bytes());
        h.finish()
    }

    /// File name of the entry: 32 hex chars of the content hash.
    pub fn file_name(&self) -> String {
        format!("{:032x}.json", self.content_hash())
    }
}

/// 128-bit FNV-1a, the std-only content hash behind [`PointKey`] (and,
/// truncated to 64 bits, [`crate::sweep::SweepPlan::fingerprint`]).
pub(crate) struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub(crate) fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u128 {
        self.0
    }
}

/// Why a store operation failed. Loads never fail — a bad entry is a
/// miss — so this only covers creating the directory and persisting
/// entries.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the path that produced it.
    Io {
        /// What the store was doing.
        action: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                source,
            } => {
                write!(f, "checkpoint store: {action} {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Monotonic discriminator for temp-file names, so concurrent saves
/// from worker threads never collide on the same temp path.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of completed sweep points, one file per
/// [`PointKey`].
#[derive(Debug)]
pub struct PointStore {
    dir: PathBuf,
    /// The host capture saves and loads are recorded into; the sweep
    /// that runs the store attaches its run's capture.
    host: Option<Arc<HostCapture>>,
}

impl PointStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            action: "create directory",
            path: dir.clone(),
            source,
        })?;
        Ok(PointStore { dir, host: None })
    }

    /// This store, recording its saves and loads into `host`.
    pub fn with_host(self, host: Option<Arc<HostCapture>>) -> Self {
        PointStore { host, ..self }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist one completed point atomically (temp file + rename).
    ///
    /// Under a host capture the write+rename is timed as a span on the
    /// store lane, observed into `store.write_seconds`, and counted as
    /// `store.saves` (or `store.save_errors` on failure).
    pub fn save(&self, key: &PointKey, output: &PointOutput) -> Result<(), StoreError> {
        let t0 = self.host.as_ref().map(|h| h.clock());
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.file_name(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let payload = encode_point(output);
        let bytes = payload.len();
        let result = std::fs::write(&tmp_path, payload)
            .map_err(|source| StoreError::Io {
                action: "write",
                path: tmp_path.clone(),
                source,
            })
            .and_then(|()| {
                std::fs::rename(&tmp_path, &final_path).map_err(|source| StoreError::Io {
                    action: "rename into",
                    path: final_path.clone(),
                    source,
                })
            });
        if let (Some(host), Some(t0)) = (&self.host, t0) {
            let (counter, outcome) = match &result {
                Ok(()) => ("store.saves", "ok"),
                Err(_) => ("store.save_errors", "error"),
            };
            host.count(counter, 1);
            host.span(
                HostTrack::Store,
                "host.store",
                format!("save point {}", key.index),
                t0,
                vec![
                    ("index", Value::Number(key.index as f64)),
                    ("bytes", Value::Number(bytes as f64)),
                    ("outcome", Value::String(outcome.into())),
                ],
            );
            // The span's end already measured the write+rename; reuse
            // the same clock for the latency histogram.
            host.observe("store.write_seconds", (host.clock() - t0).max(0.0));
        }
        result
    }

    /// Load a point if a valid entry exists. Missing, truncated,
    /// corrupt, or version-mismatched entries are misses (`None`): the
    /// caller re-runs the point and overwrites the entry.
    ///
    /// Under a host capture each probe lands on the store lane as
    /// an instant and one of `store.hits` (valid entry),
    /// `store.misses` (no readable file), or `store.corrupt` (file
    /// read, decode refused).
    pub fn load(&self, key: &PointKey) -> Option<PointOutput> {
        let path = self.dir.join(key.file_name());
        let read = std::fs::read_to_string(path);
        let decoded = read.as_deref().ok().and_then(decode_point);
        if let Some(host) = &self.host {
            let (outcome, counter) = match (&read, &decoded) {
                (Ok(_), Some(_)) => ("hit", "store.hits"),
                (Ok(_), None) => ("corrupt", "store.corrupt"),
                (Err(_), _) => ("miss", "store.misses"),
            };
            host.count(counter, 1);
            host.instant(
                HostTrack::Store,
                "host.store",
                format!("load point {}: {outcome}", key.index),
                vec![
                    ("index", Value::Number(key.index as f64)),
                    ("outcome", Value::String(outcome.into())),
                ],
            );
        }
        decoded
    }

    /// Whether a valid entry exists for `key`.
    pub fn contains(&self, key: &PointKey) -> bool {
        self.load(key).is_some()
    }

    /// Number of (non-temp) entries on disk. Diagnostic only.
    pub fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".json")))
            .count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serialize one [`PointOutput`] as the versioned store entry.
pub fn encode_point(output: &PointOutput) -> String {
    let strings = |v: &[String]| Value::Array(v.iter().map(|s| Value::String(s.clone())).collect());
    let mut doc = Value::object();
    doc.set("version", Value::Number(STORE_VERSION as f64));
    doc.set(
        "rows",
        Value::Array(output.rows.iter().map(|r| strings(r)).collect()),
    );
    doc.set("notes", strings(&output.notes));
    // f64 scalars as IEEE-754 bit patterns: decimal round-tripping can
    // perturb the last ulp, and byte-identical resumed reports cannot
    // afford that.
    doc.set(
        "values_bits",
        Value::Array(
            output
                .values
                .iter()
                .map(|v| Value::String(format!("{:016x}", v.to_bits())))
                .collect(),
        ),
    );
    serde_json::to_string_pretty(&doc)
}

/// Parse a store entry back into a [`PointOutput`]; `None` for
/// anything malformed or from another format version.
pub fn decode_point(text: &str) -> Option<PointOutput> {
    let doc = serde_json::from_str(text).ok()?;
    if doc.get("version")?.as_f64()? != STORE_VERSION as f64 {
        return None;
    }
    let str_items = |v: &Value| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|s| s.as_str().map(String::from))
            .collect()
    };
    let rows = doc
        .get("rows")?
        .as_array()?
        .iter()
        .map(str_items)
        .collect::<Option<Vec<_>>>()?;
    let notes = str_items(doc.get("notes")?)?;
    let values = doc
        .get("values_bits")?
        .as_array()?
        .iter()
        .map(|v| {
            let s = v.as_str()?;
            if s.len() != 16 {
                return None;
            }
            u64::from_str_radix(s, 16).ok().map(f64::from_bits)
        })
        .collect::<Option<Vec<_>>>()?;
    Some(PointOutput {
        rows,
        notes,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PointStore {
        let dir = std::env::temp_dir().join(format!(
            "columbia-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PointStore::open(dir).unwrap()
    }

    fn key(i: usize) -> PointKey {
        PointKey {
            experiment: "unit".into(),
            fingerprint: 0xfeed,
            index: i,
        }
    }

    #[test]
    fn round_trips_rows_notes_and_bit_exact_values() {
        let store = temp_store("roundtrip");
        let out = PointOutput {
            rows: vec![
                vec!["a".into(), "1.00 ms".into()],
                vec!["weird\ncell\t\"".into(), String::new()],
            ],
            notes: vec!["note one".into(), "unicode: µs × 2".into()],
            values: vec![0.1 + 0.2, f64::NAN, -0.0, 1e-300, f64::INFINITY],
        };
        store.save(&key(3), &out).unwrap();
        let back = store.load(&key(3)).unwrap();
        assert_eq!(back.rows, out.rows);
        assert_eq!(back.notes, out.notes);
        assert_eq!(back.values.len(), out.values.len());
        for (a, b) in back.values.iter().zip(&out.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact f64 round trip");
        }
    }

    #[test]
    fn different_indices_get_different_entries() {
        let store = temp_store("indices");
        assert_ne!(key(0).content_hash(), key(1).content_hash());
        assert_ne!(key(0).file_name(), key(1).file_name());
        store
            .save(&key(0), &PointOutput::row(vec!["x".into()]))
            .unwrap();
        assert!(store.contains(&key(0)));
        assert!(!store.contains(&key(1)));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn key_is_sensitive_to_every_component() {
        let base = key(2).content_hash();
        let other_exp = PointKey {
            experiment: "unit2".into(),
            ..key(2)
        };
        let other_fp = PointKey {
            fingerprint: 0xbeef,
            ..key(2)
        };
        assert_ne!(base, other_exp.content_hash());
        assert_ne!(base, other_fp.content_hash());
    }

    #[test]
    fn truncated_and_corrupt_entries_are_misses() {
        let store = temp_store("corrupt");
        let out = PointOutput::row(vec!["ok".into()]).with_value(1.5);
        store.save(&key(7), &out).unwrap();
        let path = store.dir().join(key(7).file_name());
        let full = std::fs::read_to_string(&path).unwrap();
        // Truncate mid-entry, as a kill mid-write would (if the write
        // were not atomic) or a torn copy could.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.load(&key(7)), None);
        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(store.load(&key(7)), None);
        // A re-save repairs the entry.
        store.save(&key(7), &out).unwrap();
        assert_eq!(store.load(&key(7)), Some(out));
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let entry = encode_point(&PointOutput::row(vec!["v".into()]));
        let bumped = entry.replace(&format!("\"version\": {STORE_VERSION}"), "\"version\": 999");
        assert_ne!(entry, bumped, "fixture must actually change the version");
        assert!(decode_point(&entry).is_some());
        assert_eq!(decode_point(&bumped), None);
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let store = temp_store("missing");
        assert_eq!(store.load(&key(0)), None);
        assert!(store.is_empty());
    }
}
