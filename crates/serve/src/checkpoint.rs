//! Crash-safe persistence for the serve engine.
//!
//! Two artifacts live under the checkpoint directory:
//!
//! - `serve.journal.jsonl` — an append-only JSONL journal of every
//!   state-changing service event (submissions, cancellations, cohort
//!   reports, barrier decisions, checkpoints, terminal outcomes, and the
//!   teed flight-recorder stream). Each line is flushed as written, so
//!   the journal survives a hard kill with at most one torn trailing
//!   line, which [`CheckpointStore::read_journal`] tolerates and
//!   [`CheckpointStore::resume`] cuts off before appending.
//! - `trial-<id>.ckpt` — the latest lane snapshot per trial
//!   ([`hfta_core::snapshot`] format: parameters, every optimizer-state
//!   slot, and the step counter), written to a temp file and atomically
//!   renamed so a crash never leaves a half-written snapshot behind.
//!
//! Recovery replays the journal to rebuild queue/cohort/terminal state,
//! then loads each surviving trial's snapshot and resumes training
//! bit-identically (trajectories depend only on `(trial, step)`).
//!
//! The journal record is one flat struct with every field always
//! present: the vendored serde derive treats a missing key as a hard
//! error, so optional payloads are encoded as defaults plus `has_*`
//! flags rather than omitted keys.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use hfta_core::snapshot::{load_lane, save_lane};
use hfta_core::surgery::LaneState;
use hfta_telemetry::flight::FlightEvent;

/// Journal format version; bumped on any incompatible record change.
pub const JOURNAL_VERSION: u32 = 1;

/// Journal file name under the checkpoint directory.
pub const JOURNAL_FILE: &str = "serve.journal.jsonl";

/// One journal line. `kind` discriminates which fields are meaningful;
/// everything else holds its default. Kinds:
///
/// - `meta` — first line; `version`.
/// - `submit` — `sweep`, `tenant`, `priority`, `base_trial`, `n_trials`.
/// - `cancel` — `sweep`.
/// - `report` — `sweep`, `trial`, `rung`, `has_score`, `score_bits`.
/// - `decision` — `sweep`, `rung`, `promoted`.
/// - `ckpt` — `trial`, `rung`, `cum_steps` (snapshot file refreshed).
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

/// The on-disk store: flushed journal plus atomic per-trial snapshots.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    journal: File,
}

impl CheckpointStore {
    /// Creates (or truncates) the store at `dir` and writes the `meta`
    /// header line.
    pub fn create(dir: &Path) -> io::Result<CheckpointStore> {
        fs::create_dir_all(dir)?;
        let journal = File::create(dir.join(JOURNAL_FILE))?;
        let mut store = CheckpointStore {
            dir: dir.to_path_buf(),
            journal,
        };
        let mut meta = ServeJournalRec::blank("meta", 0);
        meta.version = JOURNAL_VERSION;
        store.append(&meta)?;
        Ok(store)
    }

    /// Reads the journal back (tolerating one torn trailing line from a
    /// hard kill), truncates the file to the end of its last intact record
    /// and reopens it for appending. Fails if the journal is missing or its
    /// `meta` header declares an unknown version.
    pub fn resume(dir: &Path) -> io::Result<(Vec<ServeJournalRec>, CheckpointStore)> {
        let (recs, keep) = read_intact(dir)?;
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
        // Cut everything after the last intact record and terminate it
        // afresh: a record appended behind a torn fragment would be glued
        // onto it, lost, and — the glued line no longer being last — turn
        // the next recovery into a hard error.
        let mut journal = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        journal.set_len(keep)?;
        journal.write_all(b"\n")?;
        Ok((
            recs,
            CheckpointStore {
                dir: dir.to_path_buf(),
                journal,
            },
        ))
    }

    /// Parses every intact journal line under `dir`. A final line that
    /// fails to parse is treated as torn by the crash and dropped; a
    /// malformed line elsewhere is a hard error.
    pub fn read_journal(dir: &Path) -> io::Result<Vec<ServeJournalRec>> {
        Ok(read_intact(dir)?.0)
    }

    /// Appends one record and flushes it to disk.
    pub fn append(&mut self, rec: &ServeJournalRec) -> io::Result<()> {
        let line = serde_json::to_string(rec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.journal.write_all(line.as_bytes())?;
        self.journal.write_all(b"\n")?;
        self.journal.flush()
    }

    /// Journals one teed flight event.
    pub fn append_flight(&mut self, event: &FlightEvent) -> io::Result<()> {
        let mut rec = ServeJournalRec::blank("flight", event.t_ns);
        rec.flight = Some(event.clone());
        self.append(&rec)
    }

    /// Atomically replaces trial `trial`'s snapshot: written to a temp
    /// file, then renamed over the final path.
    pub fn write_snapshot(&self, trial: u64, state: &LaneState) -> io::Result<()> {
        let tmp = self.dir.join(format!("trial-{trial}.ckpt.tmp"));
        let fin = self.dir.join(format!("trial-{trial}.ckpt"));
        fs::write(&tmp, save_lane(state))?;
        fs::rename(&tmp, &fin)
    }

    /// Loads trial `trial`'s latest snapshot.
    pub fn load_snapshot(&self, trial: u64) -> io::Result<LaneState> {
        let bytes = fs::read(self.dir.join(format!("trial-{trial}.ckpt")))?;
        load_lane(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Parses the journal's intact prefix: its records, and the byte offset
/// just past the last one's text (before its newline, which a kill between
/// the two writes of [`CheckpointStore::append`] can leave off).
fn read_intact(dir: &Path) -> io::Result<(Vec<ServeJournalRec>, u64)> {
    let bytes = fs::read(dir.join(JOURNAL_FILE))?;
    let (mut recs, mut keep, mut end) = (Vec::new(), 0, 0);
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        end += line.len();
        let text = line.strip_suffix(b"\n").unwrap_or(line);
        if text.trim_ascii().is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(text)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string()));
        match parsed {
            Ok(rec) => {
                recs.push(rec);
                keep = end - (line.len() - text.len());
            }
            // Torn tail from the crash; everything before it is intact
            // because each line was flushed on write.
            Err(_) if end == bytes.len() => {}
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line {}: {e}", i + 1),
                ));
            }
        }
    }
    Ok((recs, keep as u64))
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
            f.write_all(b"{\"kind\":\"report\",\"t_ns\":").unwrap();
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
        // A whole record whose newline never landed is kept; a fragment is
        // cut off. Either way the next append must start on its own line.
        let fragment: &[u8] = b"{\"kind\":\"report\",\"t_ns\":";
        let whole = serde_json::to_string(&ServeJournalRec::blank("cancel", 7)).unwrap();
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
        let store = CheckpointStore::create(&dir).unwrap();
        let mut rng = Rng::seed_from(11);
        let state = LaneState {
            params: vec![rng.randn([3, 2])],
            opt_state: vec![vec![rng.randn([3, 2])]],
            step_count: 4,
            ctx: None,
        };
        store.write_snapshot(7, &state).unwrap();
        let newer = LaneState {
            step_count: 8,
            ..state.clone()
        };
        store.write_snapshot(7, &newer).unwrap();
        let back = store.load_snapshot(7).unwrap();
        assert_eq!(back.step_count, 8);
        assert_eq!(back.params, state.params);
        assert!(!dir.join("trial-7.ckpt.tmp").exists());
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
