//! `hfta-benchmark [options]` / `hfta-benchmark compare a.json b.json`.
//! See `run.sh` and `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use hfta_benchmark::host::HostRecord;
use hfta_benchmark::runner::{run, RunCfg};
use hfta_benchmark::spec::WORKLOADS;
use hfta_benchmark::{compare, report, workloads};

const USAGE: &str = "\
usage: hfta-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]]
                      [--set] [--quick] [--out FILE] [--out-dir DIR]
       hfta-benchmark compare A.json B.json

  --workload  dcgan_compute | pointnet_overhead | mixed_plan | asha_service | all (default)
  --seed      workload seed: model init, data streams, cluster trace (default 1)
  --seconds   seconds of timed work per run after set-up (default 30)
  --trace     per-layer metrics from a traced run instead of end-to-end metrics
  --set       three untraced runs and one traced run per workload
  --quick     smoke run: ~2 s per workload, bounds not enforced
  --out       write every run record to FILE (JSON, ends with \"claim\": null)
  --out-dir   where traces and scratch files go (default benchmark/out)";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    set: bool,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        set: false,
        quick: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let known = WORKLOADS.iter().find(|w| **w == name);
                    out.workloads = vec![known.ok_or(format!("unknown workload {name}"))?];
                }
            }
            "--seed" => {
                out.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds_given = true;
            }
            "--trace" => match args.next() {
                Some(v) if v == "0" => out.trace = false,
                Some(v) if v == "1" => out.trace = true,
                // A bare `--trace`: what follows is the next flag.
                other => {
                    out.trace = true;
                    pending = other;
                }
            },
            "--set" => out.set = true,
            "--quick" => out.quick = true,
            "--out" => out.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => out.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.quick && !seconds_given {
        out.seconds = 2.0;
    }
    Ok(out)
}

fn run_main(args: Args) -> Result<bool, String> {
    let host = HostRecord::probe()?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in &args.workloads {
        // A set is three untraced runs and a traced one; otherwise one run
        // of the requested kind.
        let kinds: &[bool] = if args.set {
            &[false, false, false, true]
        } else if args.trace {
            &[true]
        } else {
            &[false]
        };
        for &trace in kinds {
            let cfg = RunCfg {
                seed: args.seed,
                seconds: args.seconds,
                trace,
                quick: args.quick,
                out_dir: args.out_dir.clone(),
            };
            let mut bench = workloads::build(workload, args.seed, &args.out_dir)
                .expect("workload names were checked");
            let record = run(bench.as_mut(), &cfg, &host)?;
            drop(bench);
            // The next run starts with an empty memory pool, like a fresh
            // process would.
            hfta_mem::trim();
            report::print_run(&record);
            all_correct &= record.failed == 0;
            records.push(report::run_json(&record, &host));
            // Last line of a run: what the driver reads.
            println!("{}", report::contract_line(&record));
        }
    }
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&report::summary_json(records))
            .map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn compare_main(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(compare::print(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |e: String| format!("{e}\n{USAGE}");
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_main(a, b),
            _ => Err(usage("compare takes exactly two results files".into())),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse(args.into_iter()).map_err(usage).and_then(run_main),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hfta-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
