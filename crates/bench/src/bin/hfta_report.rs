//! The one report CLI: every view over the files a `--trace` / `--bench-json`
//! run leaves behind, and the gate that compares two of them.
//!
//! ```text
//! hfta_report health <trace-dir>        # per-model health tables (hfta-scope)
//! hfta_report diff <base> <candidate>   # gate candidate against base
//! hfta_report summarize <report.json>   # the gated fields of a run report
//! hfta_report roofline <trace-dir>      # per-op roofline + lane / device tables
//! hfta_report flight <trace-dir> [--width <cols>] [--out <summary.json>]
//! hfta_report top <trace-dir> [--exp <name>] [--frames <n>] [--delay-ms <d>]
//!                 [--no-clear]
//! hfta_report plan <trace-dir>          # fusion-plan block timeline
//! ```
//!
//! `diff` auto-detects what `<base>` / `<candidate>` are — run reports
//! (full `<bin>.report.json` or `summarize` output), `BENCH_*.json` bench
//! files, or flight summaries — and gates each field the way
//! [`hfta_bench::record`] declares; both sides must be the same kind.
//! `roofline` calibrates the machine peaks when it runs (about a quarter of
//! a second; nothing is cached) and places every recorded op on them: one
//! row per forward op and one `bwd:<op>` row per backward node, each counted
//! once by the autograd tape. `flight` and `top` read the
//! `*.flight.jsonl` journals (simulated integer nanoseconds, so `--out`
//! summaries are bit-reproducible and can be committed as goldens); `top`
//! replays the recorded timeline as `--frames` refresh-in-place frames.
//!
//! Exit codes, every subcommand: 0 = clean, 1 = regression found,
//! 2 = usage or I/O error.

use std::path::Path;

use hfta_bench::cli::{finish_diff, usage_exit, write_json, CommonArgs};
use hfta_bench::flight_report::{
    load_journal_dir, render_frame, render_gantt, render_slo_table, summarize,
};
use hfta_bench::probe_report::{collect_run_reports, print_lanes, print_roofline, print_timelines};
use hfta_bench::record::{diff_records, load, Loaded};
use hfta_bench::scope_report::{diff_runs, print_health};
use hfta_plan::FusionPlan;

const USAGE: &str = "hfta_report health <trace-dir>\n       \
     hfta_report diff <base> <candidate>\n       \
     hfta_report summarize <report.json>\n       \
     hfta_report roofline <trace-dir>\n       \
     hfta_report flight <trace-dir> [--width <cols>] [--out <summary.json>]\n       \
     hfta_report top <trace-dir> [--exp <name>] [--frames <n>] [--delay-ms <d>] [--no-clear]\n       \
     hfta_report plan <trace-dir>";

/// Unwraps a load/render result; any failure is a usage-or-I/O exit 2.
fn ok<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| usage_exit(USAGE, &e))
}

fn read(path: &str) -> String {
    ok(std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}")))
}

fn load_file(path: &str) -> Loaded {
    ok(load(&read(path)).map_err(|e| format!("{path}: {e}")))
}

fn health(dir: &str) {
    let reports = ok(collect_run_reports(Path::new(dir)));
    for (path, run) in &reports {
        println!("\n# {} ({})", run.name, path.display());
        for exp in &run.experiments {
            print_health(exp);
        }
    }
}

fn diff(base_path: &str, cand_path: &str) -> ! {
    let out = match (load_file(base_path), load_file(cand_path)) {
        (Loaded::Run(b), Loaded::Run(c)) => diff_runs(&b, &c),
        (Loaded::Records(b), Loaded::Records(c)) => ok(diff_records(&b, &c)),
        (Loaded::Run(_), Loaded::Records(d)) | (Loaded::Records(d), Loaded::Run(_)) => usage_exit(
            USAGE,
            &format!("cannot diff a run report against a {}", d.kind()),
        ),
    };
    finish_diff(
        &format!("hfta_report diff: {base_path} -> {cand_path}"),
        &out,
    );
}

fn summarize_run(path: &str) {
    let Loaded::Run(summary) = load_file(path) else {
        usage_exit(USAGE, &format!("{path}: not a run report"));
    };
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    println!("{json}");
}

const TIMELINE_COLS: usize = 64;

fn roofline(dir: &Path) {
    let reports = ok(collect_run_reports(dir));
    let threads = hfta_kernels::num_threads();
    let peaks = hfta_probe::calibrate(&[threads]);
    let peak = peaks.entry_for(threads as u64).expect("calibrated above");

    let mut classified = 0usize;
    for (path, run) in &reports {
        println!("\n# {} ({})", run.name, path.display());
        for exp in &run.experiments {
            println!("\n## {} ({:.2} ms)", exp.name, exp.wall_ms);
            if print_roofline(exp, peak) {
                classified += 1;
                print_lanes(exp);
            } else {
                println!("  (no op samples recorded)");
            }
            print_timelines(exp, TIMELINE_COLS);
        }
    }
    if classified == 0 {
        eprintln!(
            "note: no experiment in {} carried op samples (re-trace with this build?)",
            dir.display()
        );
    }
}

fn flight(dir: &str, width: usize, out_path: Option<String>) {
    let journal = ok(load_journal_dir(Path::new(dir)));
    let summary = ok(summarize(&journal));
    println!("# flight report: {dir}");
    print!("{}", render_slo_table(&summary));
    for (name, events) in &journal {
        print!("\n{}", ok(render_gantt(name, events, width)));
    }
    if let Some(path) = out_path {
        ok(write_json(&path, &summary).map_err(|e| format!("writing {path}: {e}")));
        println!("\nwrote {path}");
    }
}

/// ANSI clear-screen + cursor-home, the refresh-in-place redraw.
const CLEAR: &str = "\x1b[2J\x1b[H";

fn top(dir: &str, exp: Option<String>, frames: u64, delay_ms: u64, clear: bool) {
    let journal = ok(load_journal_dir(Path::new(dir)));
    let name = match exp {
        Some(name) if journal.contains_key(&name) => name,
        Some(name) => {
            let known: Vec<&str> = journal.keys().map(String::as_str).collect();
            usage_exit(
                USAGE,
                &format!(
                    "unknown experiment {name:?}; journal has: {}",
                    known.join(", ")
                ),
            );
        }
        // Default: the scope with the most events.
        None => journal
            .iter()
            .max_by_key(|(_, events)| events.len())
            .map(|(name, _)| name.clone())
            .unwrap_or_else(|| usage_exit(USAGE, "journal holds no experiments")),
    };
    let events = &journal[&name];
    let t_end = events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    for frame in 1..=frames {
        let now_ns = t_end.saturating_mul(frame) / frames;
        if clear {
            print!("{CLEAR}");
        }
        print!("{}", render_frame(&name, events, now_ns));
        println!("frame {frame}/{frames}");
        if frame < frames && delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
    }
}

fn plan(dir: &str) {
    let path = Path::new(dir).join("plan.json");
    let text = read(&path.display().to_string());
    let plan: FusionPlan = ok(serde_json::from_str(&text)
        .map_err(|e| format!("{} is not a fusion plan: {e}", path.display())));
    print!("{}", hfta_plan::render_timeline(&plan));
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        usage_exit(USAGE, "expected a subcommand");
    };
    // Only the flags a subcommand takes below are accepted; whatever is
    // left must be its positionals.
    let mut args = CommonArgs {
        rest: argv.collect(),
        ..CommonArgs::default()
    };
    let any = |_: &String| true;
    match cmd.as_str() {
        "health" => {
            let [dir] = args.positionals(USAGE);
            health(&dir);
        }
        "diff" => {
            let [base, cand] = args.positionals(USAGE);
            diff(&base, &cand);
        }
        "summarize" => {
            let [path] = args.positionals(USAGE);
            summarize_run(&path);
        }
        "roofline" => {
            let [dir] = args.positionals(USAGE);
            roofline(Path::new(&dir));
        }
        "flight" => {
            let width = args
                .take(USAGE, "--width", "an integer >= 10", |w: &usize| *w >= 10)
                .unwrap_or(64);
            let out = args.take(USAGE, "--out", "a path", any);
            let [dir] = args.positionals(USAGE);
            flight(&dir, width, out);
        }
        "top" => {
            let exp = args.take(USAGE, "--exp", "a name", any);
            let frames = args
                .take(USAGE, "--frames", "a positive integer", |n: &u64| *n > 0)
                .unwrap_or(20);
            let delay_ms = args
                .take(USAGE, "--delay-ms", "a non-negative integer", |_: &u64| {
                    true
                })
                .unwrap_or(100);
            let clear = !args.take_switch("--no-clear");
            let [dir] = args.positionals(USAGE);
            top(&dir, exp, frames, delay_ms, clear);
        }
        "plan" => {
            let [dir] = args.positionals(USAGE);
            plan(&dir);
        }
        other => usage_exit(USAGE, &format!("unknown subcommand: {other}")),
    }
}
