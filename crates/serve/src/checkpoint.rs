//! Crash-safe persistence for the serve engine.
//!
//! Two artifacts live under the checkpoint directory:
//!
//! - `serve.journal.jsonl` — an append-only journal of every state-changing
//!   service event (submissions, cancellations, cohort reports, barrier
//!   decisions, checkpoints, terminal outcomes, and the teed
//!   flight-recorder stream). **One line is one commit**: the engine stages
//!   the records of a whole `step()` (or `recover()`) and
//!   [`CheckpointStore::commit`] writes them as one JSON array (elements
//!   separated by `,<TAB>`) with one `write_all`. A line that does not
//!   parse can only be the last one, torn by the kill:
//!   [`CheckpointStore::read_journal`] drops it and
//!   [`CheckpointStore::resume`] cuts it off before appending. A step is on
//!   disk whole or not at all, so recovery never sees a checkpoint without
//!   its report or a decision without its terminals.
//! - `trial-<id>.<commit>.ckpt` — lane snapshots ([`hfta_core::snapshot`]
//!   format: parameters, every optimizer-state slot, and the step counter).
//!   A file is immutable and named by the sequence number of the commit
//!   whose `ckpt` record refers to it (that line's index in the journal, so
//!   no record carries it). It is written before that commit, ignored unless
//!   a committed `ckpt` names it, and unlinked after the commit that
//!   supersedes it: the journal is never older than a file it points at.
//!
//! Writes reach the OS with `write_all` and nothing calls `sync_data`: the
//! store survives a killed process, not a power loss.
//!
//! Recovery replays the journal to rebuild queue/cohort/terminal state,
//! then loads each surviving trial's snapshot and resumes training
//! bit-identically (trajectories depend only on `(trial, step)`).
//!
//! The journal record is one flat struct with every field always
//! present: the vendored serde derive treats a missing key as a hard
//! error, so optional payloads are encoded as defaults plus `has_*`
//! flags rather than omitted keys.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use hfta_core::snapshot::{load_lane, save_lane};
use hfta_core::surgery::LaneState;
use hfta_telemetry::flight::FlightEvent;

/// Journal format version; bumped on any incompatible change. Version 2:
/// a line is one commit (an array of records) and names its snapshot files.
pub const JOURNAL_VERSION: u32 = 2;

/// Journal file name under the checkpoint directory.
pub const JOURNAL_FILE: &str = "serve.journal.jsonl";

/// One journal record. `kind` discriminates which fields are meaningful;
/// everything else holds its default. Kinds:
///
/// - `meta` — first line; `version`.
/// - `submit` — `sweep`, `tenant`, `priority`, `base_trial`, `n_trials`.
/// - `cancel` — `sweep`.
/// - `report` — `sweep`, `trial`, `rung`, `has_score`, `score_bits`.
/// - `decision` — `sweep`, `rung`, `promoted`.
/// - `ckpt` — `trial`, `rung`, `cum_steps` (snapshot written for this commit).
/// - `terminal` — `trial`, `status`, `has_loss`, `loss_bits`.
/// - `flight` — `flight` (teed flight-recorder event).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeJournalRec {
    /// Record discriminator (see type docs).
    pub kind: String,
    /// Simulated timestamp of the event, ns grid.
    pub t_ns: u64,
    /// Journal format version (`meta` only).
    pub version: u32,
    /// Sweep id.
    pub sweep: u64,
    /// Trial id.
    pub trial: u64,
    /// Tenant name (`submit` only).
    pub tenant: String,
    /// Sweep priority (`submit` only).
    pub priority: f64,
    /// First trial id of the sweep (`submit` only).
    pub base_trial: u64,
    /// Trial count of the sweep (`submit` only).
    pub n_trials: u64,
    /// Rung index (`report` / `decision` / `ckpt`).
    pub rung: u64,
    /// Cumulative steps taken at snapshot time (`ckpt` only).
    pub cum_steps: u64,
    /// Whether `score_bits` carries a score (`report` only).
    pub has_score: bool,
    /// Bit pattern of the reported f32 score (`report` only).
    pub score_bits: u32,
    /// Terminal status label (`terminal` only).
    pub status: String,
    /// Whether `loss_bits` carries a final loss (`terminal` only).
    pub has_loss: bool,
    /// Bit pattern of the final f32 loss (`terminal` only).
    pub loss_bits: u32,
    /// Promoted trial ids (`decision` only).
    pub promoted: Vec<u64>,
    /// Teed flight event (`flight` only).
    pub flight: Option<FlightEvent>,
}

impl ServeJournalRec {
    /// A record of `kind` at `t_ns` with every payload field defaulted.
    pub fn blank(kind: &str, t_ns: u64) -> ServeJournalRec {
        ServeJournalRec {
            kind: kind.to_string(),
            t_ns,
            version: 0,
            sweep: 0,
            trial: 0,
            tenant: String::new(),
            priority: 0.0,
            base_trial: 0,
            n_trials: 0,
            rung: 0,
            cum_steps: 0,
            has_score: false,
            score_bits: 0,
            status: String::new(),
            has_loss: false,
            loss_bits: 0,
            promoted: Vec::new(),
            flight: None,
        }
    }
}

/// The on-disk store: a journal of whole-step commits plus immutable
/// per-trial snapshots named by commit.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    journal: File,
    /// The open commit line: `[rec,<TAB>rec` — empty when nothing is staged.
    staged: String,
    /// Trials with a `ckpt` record in the open commit.
    fresh: Vec<u64>,
    /// Commit lines so far: the next one's number, which names the
    /// snapshot files written until then.
    commits: u64,
    /// Per trial, the commit that names its newest committed snapshot.
    live: BTreeMap<u64, u64>,
    /// Test fail-point (`tests/crash_matrix.rs`): the store dies at clock
    /// tick `fail_at`. A staged record is one tick, refused; a snapshot
    /// write is one, half the file landing; a commit is three — half,
    /// nothing, or all but the last byte of the line lands before the error.
    #[doc(hidden)]
    pub fail_at: u64,
    /// Fail-point ticks consumed so far.
    #[doc(hidden)]
    pub ticks: Cell<u64>,
}

/// The journal's intact prefix: its records, the byte offset just past the
/// last commit's text (before its newline, which a kill can leave off), the
/// number of commits, and the commit naming each trial's newest snapshot.
type Intact = (Vec<ServeJournalRec>, u64, u64, BTreeMap<u64, u64>);

impl CheckpointStore {
    /// Creates (or truncates) the store at `dir` and commits the `meta`
    /// header line.
    pub fn create(dir: &Path) -> io::Result<CheckpointStore> {
        fs::create_dir_all(dir)?;
        let journal = File::create(dir.join(JOURNAL_FILE))?;
        let mut store = CheckpointStore::open(dir, journal, 0, BTreeMap::new());
        let mut meta = ServeJournalRec::blank("meta", 0);
        meta.version = JOURNAL_VERSION;
        store.append(&meta)?;
        Ok(store)
    }

    fn open(dir: &Path, journal: File, commits: u64, live: BTreeMap<u64, u64>) -> CheckpointStore {
        CheckpointStore {
            dir: dir.to_path_buf(),
            journal,
            staged: String::new(),
            fresh: Vec::new(),
            commits,
            live,
            fail_at: u64::MAX,
            ticks: Cell::new(0),
        }
    }

    /// Reads the journal back (tolerating one torn trailing line from a
    /// hard kill), truncates the file to the end of its last intact commit
    /// and reopens it for appending. Fails if the journal is missing or its
    /// `meta` header declares an unknown version.
    pub fn resume(dir: &Path) -> io::Result<(Vec<ServeJournalRec>, CheckpointStore)> {
        let (recs, keep, commits, live) = read_intact(dir)?;
        match recs.first() {
            Some(meta) if meta.kind == "meta" && meta.version == JOURNAL_VERSION => {}
            Some(meta) if meta.kind == "meta" => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported journal version {}", meta.version),
                ));
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "journal does not start with a meta record",
                ));
            }
        }
        // Cut everything after the last intact commit and terminate it
        // afresh: a commit appended behind a torn fragment would be glued
        // onto it, lost, and — the glued line no longer being last — turn
        // the next recovery into a hard error.
        let mut journal = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        journal.set_len(keep)?;
        journal.write_all(b"\n")?;
        Ok((recs, CheckpointStore::open(dir, journal, commits, live)))
    }

    /// Parses every record of every intact commit under `dir`. A final
    /// line that fails to parse is treated as torn by the crash and
    /// dropped; a malformed line elsewhere is a hard error.
    pub fn read_journal(dir: &Path) -> io::Result<Vec<ServeJournalRec>> {
        Ok(read_intact(dir)?.0)
    }

    /// Adds one record to the open commit; [`CheckpointStore::commit`] writes it.
    pub fn stage(&mut self, rec: &ServeJournalRec) -> io::Result<()> {
        if self.dies(1, b"").is_some() {
            return Err(io::Error::other("checkpoint store fail-point"));
        }
        let text = serde_json::to_string(rec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.staged
            .push_str(if self.staged.is_empty() { "[" } else { ",\t" });
        self.staged.push_str(&text);
        if rec.kind == "ckpt" {
            self.fresh.push(rec.trial);
        }
        Ok(())
    }

    /// Writes everything staged (if anything) as one journal line with one
    /// `write_all`, then unlinks the snapshot files it superseded.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.staged.push_str("]\n");
        if let Some(lands) = self.dies(3, self.staged.as_bytes()) {
            self.journal.write_all(lands)?;
            return Err(io::Error::other("checkpoint store fail-point"));
        }
        self.journal.write_all(self.staged.as_bytes())?;
        self.staged.clear();
        for trial in self.fresh.drain(..) {
            if let Some(old) = self.live.insert(trial, self.commits) {
                // A leftover is only garbage: no record names it any more.
                let _ = fs::remove_file(snapshot_path(&self.dir, trial, old));
            }
        }
        self.commits += 1;
        Ok(())
    }

    /// Commits one record (and anything staged): with the OS on return.
    pub fn append(&mut self, rec: &ServeJournalRec) -> io::Result<()> {
        self.stage(rec)?;
        self.commit()
    }

    /// Writes trial `trial`'s snapshot under the open commit's name. The
    /// file counts only once a `ckpt` record for the trial is committed.
    pub fn write_snapshot(&self, trial: u64, state: &LaneState) -> io::Result<()> {
        let path = snapshot_path(&self.dir, trial, self.commits);
        let bytes = save_lane(state);
        // A stale file of this name (a killed step's, an earlier service's)
        // is unlinked, not truncated: ext4 flushes a replace-via-truncate at
        // close, which costs ~6x a fresh create.
        let _ = fs::remove_file(&path);
        if let Some(lands) = self.dies(1, &bytes) {
            fs::write(path, lands)?;
            return Err(io::Error::other("checkpoint store fail-point"));
        }
        fs::write(path, bytes)
    }

    /// Loads trial `trial`'s newest committed snapshot.
    pub fn load_snapshot(&self, trial: u64) -> io::Result<LaneState> {
        let commit = self.live.get(&trial).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no committed snapshot of trial {trial}"),
            )
        })?;
        let bytes = fs::read(snapshot_path(&self.dir, trial, *commit))?;
        load_lane(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Advances the clock by a write's `parts`; when the armed tick falls
    /// on it, the prefix of `bytes` that lands before the store dies.
    fn dies<'a>(&self, parts: u64, bytes: &'a [u8]) -> Option<&'a [u8]> {
        let at = self.ticks.get();
        self.ticks.set(at + parts);
        let part = self.fail_at.checked_sub(at).filter(|p| *p < parts)?;
        let len = bytes.len();
        Some(&bytes[..[len / 2, 0, len.saturating_sub(1)][part as usize]])
    }
}

fn snapshot_path(dir: &Path, trial: u64, commit: u64) -> PathBuf {
    dir.join(format!("trial-{trial}.{commit}.ckpt"))
}

/// Parses one commit line onto `recs`. A raw TAB cannot occur inside JSON
/// text, so the array splits into records without a scanner, and each
/// record's value tree is dropped before the next is parsed (one tree per
/// line reads 20 % slower).
fn parse_commit(line: &str, recs: &mut Vec<ServeJournalRec>) -> Result<(), String> {
    let body = line.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
    for rec in body.ok_or("not an array")?.split('\t') {
        let rec = serde_json::from_str(rec.strip_suffix(',').unwrap_or(rec));
        recs.push(rec.map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn read_intact(dir: &Path) -> io::Result<Intact> {
    let bytes = fs::read(dir.join(JOURNAL_FILE))?;
    let (mut recs, mut keep, mut end, mut commits) = (Vec::new(), 0, 0, 0);
    let mut live = BTreeMap::new();
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        end += line.len();
        let text = line.strip_suffix(b"\n").unwrap_or(line);
        if text.trim_ascii().is_empty() {
            continue;
        }
        let start = recs.len();
        let parsed = std::str::from_utf8(text)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_commit(t, &mut recs));
        match parsed {
            Ok(()) => {
                for rec in recs[start..].iter().filter(|r| r.kind == "ckpt") {
                    live.insert(rec.trial, commits);
                }
                commits += 1;
                keep = end - (line.len() - text.len());
            }
            // Torn tail from the crash; everything before it is intact
            // because each commit was one write.
            Err(_) if end == bytes.len() => recs.truncate(start),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line {}: {e}", i + 1),
                ));
            }
        }
    }
    Ok((recs, keep as u64, commits, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_tensor::Rng;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hfta-serve-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let dir = tmpdir("journal");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let mut sub = ServeJournalRec::blank("submit", 5);
        sub.sweep = 1;
        sub.tenant = "alice".into();
        sub.priority = 2.0;
        sub.n_trials = 8;
        store.append(&sub).unwrap();
        let mut rep = ServeJournalRec::blank("report", 9);
        rep.trial = 3;
        rep.has_score = true;
        rep.score_bits = (-0.25f32).to_bits();
        store.append(&rep).unwrap();
        // Simulate a crash mid-write: a torn trailing line.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
            f.write_all(b"[{\"kind\":\"report\",\"t_ns\":").unwrap();
        }
        let (recs, _resumed) = CheckpointStore::resume(&dir).unwrap();
        assert_eq!(recs.len(), 3); // meta + submit + report; torn tail dropped
        assert_eq!(recs[0].kind, "meta");
        assert_eq!(recs[0].version, JOURNAL_VERSION);
        assert_eq!(recs[1].tenant, "alice");
        assert_eq!(recs[2].score_bits, (-0.25f32).to_bits());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_appended_after_a_torn_tail_survive_the_next_recovery() {
        // A whole commit whose newline never landed is kept; a fragment is
        // cut off. Either way the next append must start on its own line.
        let fragment: &[u8] = b"[{\"kind\":\"report\",\"t_ns\":";
        let whole = serde_json::to_string(&[ServeJournalRec::blank("cancel", 7)]).unwrap();
        for (tag, tail, want) in [
            (
                "frag",
                fragment,
                vec!["meta", "submit", "report", "terminal"],
            ),
            (
                "nonl",
                whole.as_bytes(),
                vec!["meta", "submit", "cancel", "report", "terminal"],
            ),
        ] {
            let dir = tmpdir(tag);
            let mut store = CheckpointStore::create(&dir).unwrap();
            store.append(&ServeJournalRec::blank("submit", 5)).unwrap();
            drop(store);
            OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap()
                .write_all(tail)
                .unwrap();
            let (recs, mut store) = CheckpointStore::resume(&dir).unwrap();
            assert_eq!(recs.len(), want.len() - 2, "{tag}: before the appends");
            for (kind, t_ns) in [("report", 9), ("terminal", 11)] {
                store.append(&ServeJournalRec::blank(kind, t_ns)).unwrap();
            }
            drop(store);
            let (recs, _store) = CheckpointStore::resume(&dir).unwrap();
            let kinds: Vec<&str> = recs.iter().map(|r| r.kind.as_str()).collect();
            assert_eq!(kinds, want, "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn snapshots_replace_atomically_and_round_trip() {
        let dir = tmpdir("snap");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let mut rng = Rng::seed_from(11);
        let state = LaneState {
            params: vec![rng.randn([3, 2])],
            opt_state: vec![vec![rng.randn([3, 2])]],
            step_count: 4,
            ctx: None,
        };
        let mut ckpt = ServeJournalRec::blank("ckpt", 1);
        ckpt.trial = 7;
        store.write_snapshot(7, &state).unwrap();
        assert!(store.load_snapshot(7).is_err(), "not committed yet");
        store.append(&ckpt).unwrap();
        let newer = LaneState {
            step_count: 8,
            ..state.clone()
        };
        // Written but never committed: the older snapshot stays the live one.
        store.write_snapshot(7, &newer).unwrap();
        assert_eq!(store.load_snapshot(7).unwrap().step_count, 4);
        store.append(&ckpt).unwrap();
        assert_eq!(store.load_snapshot(7).unwrap().step_count, 8);
        assert!(
            !dir.join("trial-7.1.ckpt").exists(),
            "superseded file stays"
        );
        drop(store);
        let (_, store) = CheckpointStore::resume(&dir).unwrap();
        let back = store.load_snapshot(7).unwrap();
        assert_eq!(back.step_count, 8);
        assert_eq!(back.params, state.params);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        use hfta_core::snapshot::SnapshotError;
        let dir = tmpdir("malformed");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let state = LaneState {
            params: vec![Rng::seed_from(5).randn([2, 3])],
            opt_state: vec![],
            step_count: 2,
            ctx: None,
        };
        store.write_snapshot(4, &state).unwrap();
        let mut ckpt = ServeJournalRec::blank("ckpt", 1);
        ckpt.trial = 4;
        store.append(&ckpt).unwrap();
        let path = snapshot_path(&dir, 4, store.live[&4]);
        let good = fs::read(&path).unwrap();
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let corruptions = [
            (b"nope".to_vec(), SnapshotError::BadMagic),
            (good[..good.len() - 3].to_vec(), SnapshotError::Truncated),
            (bad_version, SnapshotError::BadVersion(99)),
            ([&good[..], &[0]].concat(), SnapshotError::TrailingBytes),
        ];
        // A committed file damaged on disk is the decoder's typed error,
        // passed on as InvalidData; it never panics or yields a state.
        for (bytes, want) in corruptions {
            fs::write(&path, bytes).unwrap();
            let err = store.load_snapshot(4).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}");
            assert_eq!(err.to_string(), want.to_string());
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(store.load_snapshot(4).unwrap().params, state.params);
        fs::remove_file(&path).unwrap();
        assert_eq!(
            store.load_snapshot(4).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_step_commits_as_one_line_or_not_at_all() {
        let dir = tmpdir("group");
        let mut store = CheckpointStore::create(&dir).unwrap();
        for t_ns in [3, 4, 5] {
            store
                .stage(&ServeJournalRec::blank("report", t_ns))
                .unwrap();
        }
        assert_eq!(CheckpointStore::read_journal(&dir).unwrap().len(), 1);
        store.commit().unwrap();
        store.commit().unwrap(); // nothing staged: no line
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(text.lines().count(), 2, "meta + one commit: {text}");
        assert_eq!(CheckpointStore::read_journal(&dir).unwrap().len(), 4);
        // Any strict prefix of the commit line is a torn tail.
        let line = text.lines().nth(1).unwrap();
        let meta_len = text.len() - line.len() - 1;
        for cut in 0..line.len() {
            fs::write(dir.join(JOURNAL_FILE), &text[..meta_len + cut]).unwrap();
            assert_eq!(CheckpointStore::read_journal(&dir).unwrap().len(), 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_missing_meta() {
        let dir = tmpdir("nometa");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), "").unwrap();
        assert!(CheckpointStore::resume(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
