//! Integration tests of the find-db's unhappy paths and of its separation
//! from GEMM dispatch: a configured db — whatever it holds — never changes
//! what `gemm*` run, and stale-version or garbage files mean "start empty",
//! never a panic. Runs as its own test binary because the find-db path and
//! stats counters are process globals.

use hfta_kernels::tune::{self, FindDb, TuneEntry, TUNE_DB_VERSION};
use hfta_kernels::{gemm, reference};
use std::path::PathBuf;
use std::sync::Mutex;

/// The find-db path and stats counters are process globals; serialize the
/// tests that touch them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state as f64 / u64::MAX as f64) as f32 - 0.5) * 2.0
        })
        .collect()
}

fn temp_db(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hfta-tune-it-{}-{name}.json", std::process::id()))
}

fn entry(winner: &str) -> TuneEntry {
    TuneEntry {
        winner: winner.to_string(),
        micros: Default::default(),
    }
}

#[test]
fn gemm_dispatch_never_consults_the_find_db() {
    let _g = GLOBAL_LOCK.lock().unwrap();
    // Large enough to clear the small-shape shortcut.
    let (m, k, n) = (32, 32, 48);
    let a = fill(m * k, 5);
    let b = fill(k * n, 6);
    let init = fill(m * n, 7);
    let mut expect = init.clone();
    reference::gemm_ref(&mut expect, &a, &b, m, k, n);

    // A current-version db whose entry for this very GEMM names a retired
    // backend, and one naming nonsense: both must be ignored.
    for winner in ["blocked", "simd", "mystery"] {
        let db_path = temp_db(winner);
        let mut db = FindDb::new();
        let threads = hfta_kernels::num_threads();
        db.entries
            .insert(tune::key("gemm", m, k, n, threads), entry(winner));
        db.save(&db_path).unwrap();
        tune::set_db_path(Some(db_path.clone()));
        tune::reset_stats();

        let mut got = init.clone();
        gemm(&mut got, &a, &b, m, k, n);
        assert_eq!(got, expect, "a `{winner}` winner changed the GEMM result");
        let stats = tune::stats();
        assert_eq!(stats.hits, 0, "GEMM dispatch looked `{winner}` up");
        assert_eq!(stats.benchmarked, 0, "GEMM dispatch tuned");
        assert_eq!(
            FindDb::load(&db_path).expect("db still loads"),
            db,
            "GEMM dispatch wrote to the find-db"
        );

        tune::set_db_path(None);
        let _ = std::fs::remove_file(&db_path);
    }
}

#[test]
fn stale_version_db_starts_empty_and_retunes() {
    let _g = GLOBAL_LOCK.lock().unwrap();
    let db_path = temp_db("stale");
    // What a pre-bump process left behind: the previous version, winners
    // that no longer exist.
    let mut stale = FindDb::new();
    stale.version = TUNE_DB_VERSION - 1;
    let key = tune::key("conv2d", 3, 18, 100, 1);
    stale.entries.insert(key.clone(), entry("blocked"));
    stale.save(&db_path).unwrap();

    tune::set_db_path(Some(db_path.clone()));
    tune::reset_stats();
    assert!(tune::enabled());
    assert!(
        tune::snapshot().entries.is_empty(),
        "stale entries survived"
    );
    assert_eq!(tune::lookup(&key), None);

    // The next decision overwrites the stale file at the current version.
    tune::record(&key, "im2col", &[("im2col", 1.0), ("prepacked", 2.0)]);
    let on_disk = FindDb::load(&db_path).expect("re-tuned db must load");
    assert_eq!(on_disk.version, TUNE_DB_VERSION);
    assert_eq!(on_disk.entries[&key].winner, "im2col");

    tune::set_db_path(None);
    let _ = std::fs::remove_file(&db_path);
}

#[test]
fn garbage_db_starts_empty() {
    let _g = GLOBAL_LOCK.lock().unwrap();
    let db_path = temp_db("garbage");
    for garbage in ["", "not json {", "{\"version\": \"two\", \"entries\": []}"] {
        std::fs::write(&db_path, garbage).unwrap();
        tune::set_db_path(Some(db_path.clone()));
        assert!(tune::snapshot().entries.is_empty());
        assert_eq!(tune::lookup("conv2d/1x1x1@1T"), None);
    }
    tune::set_db_path(None);
    let _ = std::fs::remove_file(&db_path);
}
