//! `core::manifest` — the canonical machine-readable record of one
//! `repro` run.
//!
//! A characterization campaign is only as reproducible as its
//! paper trail. `repro --manifest out.json` writes one schema'd JSON
//! document per invocation recording *what ran* (experiments, plan
//! fingerprints, point counts), *how it ran* (jobs, resilience
//! options, per-experiment [`SweepStats`]), *what it produced* (a
//! content hash of each rendered report), and *what it cost* (wall
//! time, host executor metrics) — plus the git revision, so a manifest
//! pins a result to the exact tree that made it.
//!
//! # Determinism contract
//!
//! Everything nondeterministic lives under the single top-level
//! `volatile` key: wall time, git revision, and host executor metrics
//! (steal counts depend on scheduling). The rest of the document is
//! **byte-stable**: two identical runs produce identical manifests
//! once `volatile` is stripped ([`RunManifest::stable_string`]), and a
//! golden test holds that line. Keys render in insertion order —
//! fixed by this module, never by a hash map — so stability is
//! structural, not accidental.

use std::time::Duration;

use serde_json::Value;

use crate::report::Report;
use crate::store::Fnv128;
use crate::sweep::SweepStats;

/// Schema tag of the run manifest document.
pub const RUN_MANIFEST_SCHEMA: &str = "columbia-run-manifest-v1";

/// 128-bit FNV-1a content hash of a rendered report (its canonical
/// text form), as 32 hex chars. Two runs produced the same tables iff
/// their report hashes match — the manifest carries the hash instead
/// of the full table so diffing manifests stays cheap.
pub fn report_hash(report: &Report) -> String {
    let mut h = Fnv128::new();
    h.update(b"columbia-report\0");
    h.update(report.to_text().as_bytes());
    format!("{:032x}", h.finish())
}

/// The resilience configuration a run executed under, as recorded in
/// the manifest (a summary, not the live [`crate::ResilienceOptions`]
/// — that struct owns a store handle and closures the manifest cannot
/// serialize).
#[derive(Debug, Clone, Default)]
pub struct ResilienceSummary {
    /// Whether the resilient executor ran at all.
    pub enabled: bool,
    /// Whether checkpointed points were served without re-running.
    pub resume: bool,
    /// Retries after a panicked or timed-out attempt.
    pub max_retries: u32,
    /// Per-attempt wall-clock deadline, if any.
    pub deadline: Option<Duration>,
    /// Checkpoint directory, if any.
    pub checkpoint_dir: Option<String>,
}

impl ResilienceSummary {
    fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("enabled", Value::Bool(self.enabled));
        v.set("resume", Value::Bool(self.resume));
        v.set("max_retries", Value::Number(f64::from(self.max_retries)));
        v.set(
            "point_deadline_seconds",
            match self.deadline {
                Some(d) => Value::Number(d.as_secs_f64()),
                None => Value::Null,
            },
        );
        v.set(
            "checkpoint_dir",
            match &self.checkpoint_dir {
                Some(d) => Value::String(d.clone()),
                None => Value::Null,
            },
        );
        v
    }
}

/// The declared-nondeterministic tail of a manifest. Everything here
/// renders under the `volatile` key and is excluded from the
/// byte-stability contract.
#[derive(Debug, Clone, Default)]
pub struct Volatile {
    /// Wall clock of the whole run, seconds.
    pub wall_time_seconds: f64,
    /// `git rev-parse HEAD` of the tree that ran (see [`git_rev`]).
    pub git_rev: String,
    /// Host executor metrics ([`columbia_obs::Metrics::to_value`]) when
    /// a host capture was live, else absent.
    pub host_metrics: Option<Value>,
    /// PDES threads each simulation ran with (1 = serial engine).
    /// Volatile because results are bit-identical at any value — the
    /// stable portion must not depend on how the run was executed.
    pub sim_threads: usize,
}

/// Accumulates one run's manifest; [`ManifestBuilder::finish`] seals
/// it. Experiments must be recorded in execution order — the manifest
/// preserves it.
#[derive(Debug)]
pub struct ManifestBuilder {
    doc: Value,
    experiments: Vec<Value>,
}

impl ManifestBuilder {
    /// Start a manifest for `tool` (e.g. "repro") running `jobs`
    /// worker threads under `resilience`.
    pub fn new(tool: &str, jobs: usize, resilience: &ResilienceSummary) -> Self {
        let mut doc = Value::object();
        doc.set("schema", Value::String(RUN_MANIFEST_SCHEMA.into()));
        doc.set("tool", Value::String(tool.into()));
        doc.set("jobs", Value::Number(jobs as f64));
        doc.set("resilience", resilience.to_value());
        ManifestBuilder {
            doc,
            experiments: Vec::new(),
        }
    }

    /// Record one executed experiment: its plan identity (name,
    /// shape fingerprint, point count), the content hash of the report
    /// it rendered, for resilient runs its [`SweepStats`], and a
    /// trailing `spec` object pinning the run to the exact spec text
    /// that produced it — the FNV-128 content hash of the spec bytes
    /// ([`crate::spec::spec_hash`]) and the resolved point count after
    /// grid expansion. Everything lands in the stable portion: same
    /// spec, same manifest, whether it ran as `--exp` or `--spec`.
    pub fn record_experiment(
        &mut self,
        name: &str,
        fingerprint: u64,
        points: usize,
        report: &Report,
        stats: Option<&SweepStats>,
        spec_content_hash: &str,
    ) {
        let mut e = Value::object();
        e.set("name", Value::String(name.into()));
        e.set(
            "plan_fingerprint",
            Value::String(format!("{fingerprint:016x}")),
        );
        e.set("points", Value::Number(points as f64));
        e.set("report_id", Value::String(report.id.clone()));
        e.set("report_hash", Value::String(report_hash(report)));
        e.set(
            "stats",
            match stats {
                Some(s) => s.to_value(),
                None => Value::Null,
            },
        );
        let mut s = Value::object();
        s.set("content_hash", Value::String(spec_content_hash.into()));
        s.set("points", Value::Number(points as f64));
        e.set("spec", s);
        self.experiments.push(e);
    }

    /// Seal the manifest, attaching the declared-volatile tail.
    pub fn finish(mut self, volatile: &Volatile) -> RunManifest {
        self.doc.set("experiments", Value::Array(self.experiments));
        let mut v = Value::object();
        v.set(
            "wall_time_seconds",
            Value::Number(volatile.wall_time_seconds),
        );
        v.set("git_rev", Value::String(volatile.git_rev.clone()));
        v.set(
            "host_metrics",
            volatile.host_metrics.clone().unwrap_or(Value::Null),
        );
        v.set(
            "sim_threads",
            Value::Number(volatile.sim_threads.max(1) as f64),
        );
        self.doc.set("volatile", v);
        RunManifest { doc: self.doc }
    }
}

/// A sealed run manifest.
#[derive(Debug, Clone)]
pub struct RunManifest {
    doc: Value,
}

impl RunManifest {
    /// The full document.
    pub fn to_value(&self) -> &Value {
        &self.doc
    }

    /// The full document, pretty-printed — what `--manifest` writes.
    pub fn to_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.doc)
    }

    /// The document with the `volatile` key stripped: the byte-stable
    /// part two identical runs must agree on. The golden test compares
    /// exactly this rendering.
    pub fn stable_string(&self) -> String {
        let mut doc = self.doc.clone();
        if let Value::Object(entries) = &mut doc {
            entries.retain(|(k, _)| k != "volatile");
        }
        serde_json::to_string_pretty(&doc)
    }
}

/// `git rev-parse HEAD` of the working tree, or `"unknown"` when git
/// is unavailable (e.g. running from an exported tarball). Volatile by
/// definition — it lives under the manifest's `volatile` key.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> Report {
        let mut r = Report::new("Table 9", "demo", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.note("a note");
        r
    }

    fn demo_manifest(wall: f64) -> RunManifest {
        let resilience = ResilienceSummary {
            enabled: true,
            resume: false,
            max_retries: 2,
            deadline: Some(Duration::from_secs_f64(30.0)),
            checkpoint_dir: Some("ckpt".into()),
        };
        let mut b = ManifestBuilder::new("repro", 4, &resilience);
        let stats = SweepStats {
            points: 3,
            resumed: 1,
            retries: 2,
            panics: 0,
            timeouts: 1,
            failed: 1,
            checkpoint_errors: 0,
        };
        b.record_experiment(
            "table9",
            0xdead_beef,
            3,
            &demo_report(),
            Some(&stats),
            &crate::spec::spec_hash(b"demo spec"),
        );
        b.finish(&Volatile {
            wall_time_seconds: wall,
            git_rev: git_rev(),
            host_metrics: None,
            sim_threads: 1,
        })
    }

    #[test]
    fn schema_and_sections_are_present_and_ordered() {
        let m = demo_manifest(1.5);
        let text = m.to_string_pretty();
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(RUN_MANIFEST_SCHEMA)
        );
        assert_eq!(doc.get("tool").and_then(Value::as_str), Some("repro"));
        assert_eq!(doc.get("jobs").and_then(Value::as_f64), Some(4.0));
        let exps = doc.get("experiments").and_then(Value::as_array).unwrap();
        assert_eq!(exps.len(), 1);
        let e = &exps[0];
        assert_eq!(e.get("name").and_then(Value::as_str), Some("table9"));
        assert_eq!(
            e.get("plan_fingerprint").and_then(Value::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            e.get("stats")
                .and_then(|s| s.get("timeouts"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        // volatile is the last top-level key, carrying the run cost.
        let vol = doc.get("volatile").unwrap();
        assert_eq!(
            vol.get("wall_time_seconds").and_then(Value::as_f64),
            Some(1.5)
        );
        assert!(vol.get("git_rev").and_then(Value::as_str).is_some());
    }

    #[test]
    fn stable_rendering_ignores_the_volatile_tail() {
        let a = demo_manifest(1.0);
        let b = demo_manifest(99.0);
        assert_ne!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "full documents differ in wall time"
        );
        assert_eq!(
            a.stable_string(),
            b.stable_string(),
            "stable rendering is byte-identical"
        );
        assert!(
            !a.stable_string().contains("volatile"),
            "volatile is stripped, not zeroed"
        );
    }

    #[test]
    fn report_hash_tracks_report_content() {
        let r = demo_report();
        let mut r2 = demo_report();
        assert_eq!(report_hash(&r), report_hash(&r2));
        r2.push_row(vec!["3".into(), "4".into()]);
        assert_ne!(report_hash(&r), report_hash(&r2));
        assert_eq!(report_hash(&r).len(), 32, "32 hex chars of FNV-128");
    }

    #[test]
    fn git_rev_is_a_commit_or_unknown() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git_rev: {rev}"
        );
    }
}
