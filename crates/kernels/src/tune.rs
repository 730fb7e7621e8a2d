//! Persistent per-shape kernel autotuner (MIOpen-style find-db).
//!
//! MIOpen ships several implementations per primitive and picks one per
//! problem shape by benchmarking on first encounter, caching the winner in a
//! "find-db" so later runs dispatch straight to the tuned kernel. This
//! module is that selection layer where implementations genuinely trade
//! places per shape — today only `hfta-tensor`'s `conv2d` algorithm choice
//! (`im2col` vs `prepacked`): the caller asks [`lookup`] for a cached winner
//! keyed by `(op, shape, threads)`, times the candidates itself on a miss,
//! and [`record`]s the result. GEMM dispatch has one production kernel and
//! never consults the db.
//!
//! # File format and versioning
//!
//! The find-db is a pretty-printed JSON object `{version, entries}` where
//! `entries` maps `"op/MxKxN@TT"` keys to `{winner, micros}` (per-candidate
//! wall micros from the tuning run, kept for `bench_kernels` reporting).
//! [`TUNE_DB_VERSION`] gates loads exactly like the probe db: a version
//! mismatch silently discards the file, so a method or layout change
//! re-tunes instead of dispatching on stale winners. A winner name the
//! caller does not recognize means its default — never a panic.
//!
//! Tuning is off until a db path is configured — via [`set_db_path`] or the
//! `HFTA_TUNE_DB` env var (read once) — because benchmarking candidates on
//! first encounter costs a few extra kernel runs; with no path set callers
//! take their default and this module is inert.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// Bump when the key format, candidate set semantics, or file layout
/// changes; stale files are silently discarded and re-tuned. Version 2:
/// the `gemm*` keys and their `blocked` / `simd` winners no longer exist.
pub const TUNE_DB_VERSION: u64 = 2;

/// One tuned decision: the winning candidate name and the per-candidate wall
/// micros measured when the decision was made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneEntry {
    /// Winning candidate name (`"im2col"`, `"prepacked"`, ...).
    pub winner: String,
    /// Wall-clock micros per candidate from the tuning run.
    pub micros: BTreeMap<String, f64>,
}

/// The on-disk find-db: tuned winners keyed by `"op/MxKxN@TT"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindDb {
    /// File-format version ([`TUNE_DB_VERSION`]).
    pub version: u64,
    /// Tuned decisions, keyed by [`key`].
    pub entries: BTreeMap<String, TuneEntry>,
}

impl FindDb {
    /// An empty db at the current version.
    pub fn new() -> Self {
        FindDb {
            version: TUNE_DB_VERSION,
            entries: BTreeMap::new(),
        }
    }

    /// Loads a find-db; `None` when the file is missing, unparsable, or
    /// carries a stale [`TUNE_DB_VERSION`] (callers then start empty and
    /// re-tune on demand).
    pub fn load(path: &Path) -> Option<FindDb> {
        let text = std::fs::read_to_string(path).ok()?;
        let db: FindDb = serde_json::from_str(&text).ok()?;
        (db.version == TUNE_DB_VERSION).then_some(db)
    }

    /// Writes the db as pretty JSON, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let json = serde_json::to_string_pretty(self).expect("find-db serializes infallibly");
        std::fs::write(path, json)
    }
}

impl Default for FindDb {
    fn default() -> Self {
        Self::new()
    }
}

struct TuneState {
    path: Option<PathBuf>,
    db: FindDb,
}

static STATE: OnceLock<Mutex<TuneState>> = OnceLock::new();
/// Dispatches answered from the cache (no re-benchmark).
static HITS: AtomicU64 = AtomicU64::new(0);
/// First-encounter tuning runs recorded.
static BENCHMARKED: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<TuneState> {
    STATE.get_or_init(|| {
        let path = std::env::var("HFTA_TUNE_DB")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(PathBuf::from);
        let db = path.as_deref().and_then(FindDb::load).unwrap_or_default();
        Mutex::new(TuneState { path, db })
    })
}

/// Counters for asserting cache behaviour (see `tests/tune.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneStats {
    /// Dispatches answered from the find-db cache.
    pub hits: u64,
    /// First-encounter tuning runs (candidate benchmarks) performed.
    pub benchmarked: u64,
}

/// Current cache-hit / benchmark counters (process-wide, monotonic except
/// across [`reset_stats`]).
pub fn stats() -> TuneStats {
    TuneStats {
        hits: HITS.load(Ordering::Relaxed),
        benchmarked: BENCHMARKED.load(Ordering::Relaxed),
    }
}

/// Zeroes the [`stats`] counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    BENCHMARKED.store(0, Ordering::Relaxed);
}

/// Points the autotuner at a find-db file (loading it if present and
/// version-current), or disables tuning with `None`. Overrides
/// `HFTA_TUNE_DB`.
pub fn set_db_path(path: Option<PathBuf>) {
    let mut st = state().lock().unwrap();
    st.db = path.as_deref().and_then(FindDb::load).unwrap_or_default();
    st.path = path;
}

/// Whether a find-db is configured — i.e. whether tunable ops tune.
pub fn enabled() -> bool {
    state().lock().unwrap().path.is_some()
}

/// The find-db key for one problem: `"op/MxKxN@TT"`. Thread count is part
/// of the key because the best candidate shifts with parallelism.
pub fn key(op: &str, m: usize, k: usize, n: usize, threads: usize) -> String {
    format!("{op}/{m}x{k}x{n}@{threads}T")
}

/// The cached winner for `key`, if tuning is enabled and the shape has been
/// seen. Counts a cache hit.
pub fn lookup(key: &str) -> Option<String> {
    let st = state().lock().unwrap();
    st.path.as_ref()?;
    let winner = st.db.entries.get(key).map(|e| e.winner.clone());
    if winner.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    winner
}

/// Records a tuning decision and persists the db write-through (save errors
/// are ignored — a read-only location just means re-tuning next process).
/// No-op when tuning is disabled.
pub fn record(key: &str, winner: &str, micros: &[(&str, f64)]) {
    let mut st = state().lock().unwrap();
    if st.path.is_none() {
        return;
    }
    BENCHMARKED.fetch_add(1, Ordering::Relaxed);
    st.db.entries.insert(
        key.to_string(),
        TuneEntry {
            winner: winner.to_string(),
            micros: micros.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        },
    );
    if let Some(path) = st.path.clone() {
        let _ = st.db.save(&path);
    }
}

/// A snapshot of the in-memory find-db (for reporting).
pub fn snapshot() -> FindDb {
    state().lock().unwrap().db.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_db_round_trips_and_version_gates() {
        let dir = std::env::temp_dir().join(format!("hfta-tune-{}", std::process::id()));
        let path = dir.join("find_db.json");
        let mut db = FindDb::new();
        db.entries.insert(
            key("conv2d", 64, 64, 1024, 4),
            TuneEntry {
                winner: "prepacked".to_string(),
                micros: [
                    ("im2col".to_string(), 41.5),
                    ("prepacked".to_string(), 12.25),
                ]
                .into_iter()
                .collect(),
            },
        );
        db.save(&path).unwrap();
        let loaded = FindDb::load(&path).expect("fresh db must load");
        assert_eq!(loaded, db);

        // A version bump must invalidate the cached file.
        let mut stale = db.clone();
        stale.version = TUNE_DB_VERSION + 1;
        stale.save(&path).unwrap();
        assert!(FindDb::load(&path).is_none(), "stale version must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_encode_op_shape_and_threads() {
        assert_eq!(key("gemm", 8, 16, 32, 4), "gemm/8x16x32@4T");
        assert_eq!(key("conv2d", 3, 27, 1024, 1), "conv2d/3x27x1024@1T");
    }
}
