//! The repo's reference benchmark. See `README.md` beside `Cargo.toml` for
//! what is measured and why; `BENCHMARK.json` at the repo root declares the
//! same names to the driver.

mod affinity;
mod compare;
mod json;
mod layers;
mod measure;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use json::Json;
use report::{result_file, Provenance};
use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "\
usage: privpath-benchmark [--workload <name>|all] [--seed <n>] [--seconds <n>]
                          [--trace [0|1]] [--quick] [--out <file>] [--trace-out <file>]
       privpath-benchmark compare <A.json> <B.json>

workloads: ci-client, pi-scan, lm-rounds, pi-scan-x2 (default: all)
--seconds    measured window; the driver passes BENCHMARK.json's run_seconds, which
             is also the default. `compare` judges only results of equal windows
--trace 1    the separate traced run: per-layer metrics instead of end-to-end ones
--quick      smoke mode: 2 s windows, one set-up, marked quick and never comparable
--out        write the JSON result file that `compare` reads
--trace-out  with --trace 1 and one workload: dump path C's spans as JSON";

struct Args {
    /// `None`: all of them, each in a process of its own.
    workload: Option<&'static Workload>,
    seed: u64,
    /// As given, else the full or the quick window.
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: workload::RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut seconds = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(workload::workload(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => {
                args.seed = parse_u64(value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                let s = parse_u64(value("a number")?).filter(|&s| s >= 1);
                seconds = Some(s.ok_or("--seconds needs a whole number of at least 1")?);
            }
            "--trace" => {
                // `--trace` alone means 1; the driver always passes 0 or 1
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace_out.is_some() && !(args.trace && args.workload.is_some()) {
        return Err("--trace-out needs --trace 1 and a single --workload".into());
    }
    if args.quick {
        args.seconds = workload::QUICK_SECONDS;
    }
    if let Some(s) = seconds {
        args.seconds = s;
    }
    Ok(args)
}

/// All workloads: each runs in a process of its own, exactly as the driver
/// runs it, so that no workload inherits the CPU set, the allocator state
/// or the peak RSS of the one before. The children's result files are merged.
fn run_each_in_a_child(args: &Args) -> Res<ExitCode> {
    let exe = std::env::current_exe()?;
    let scratch = setup::ScratchDir::new()?;
    let mut merged: Option<Json> = None;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let part = scratch.path().join(format!("{}.json", w.name));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.quick {
            child.arg("--quick");
        }
        all_correct &= child.status()?.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("workload {} left no result: {e}", w.name))?;
        let file = Json::parse(&text)?;
        match &mut merged {
            None => merged = Some(file),
            Some(first) => report::append_workloads(first, &file),
        }
    }
    if let (Some(path), Some(file)) = (&args.out, merged) {
        std::fs::write(path, file.pretty())?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &Args) -> Res<ExitCode> {
    let Some(w) = args.workload else {
        return run_each_in_a_child(args);
    };
    let host = affinity::CpuSet::current()
        .ok_or("cannot read this process's CPU set, so cannot pin the workload's CPU count")?;
    if w.cpus > host.count() {
        return Err(format!(
            "workload {} pins {} cpu(s) and this process may use {}: on fewer it would measure time-slicing, and the result would compare with no other",
            w.name,
            w.cpus,
            host.count()
        )
        .into());
    }
    // before any thread exists: every thread spawned later inherits it
    if !host.first(w.cpus).apply() {
        return Err(format!(
            "the system refused to confine the process to {} cpu(s)",
            w.cpus
        )
        .into());
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let provenance = Provenance::collect(
        host.count(),
        args.seed,
        args.seconds,
        args.quick,
        args.trace,
    );
    println!(
        "# privpath reference benchmark: road_like {} nodes (seed {}), {} pairs from seed {}, {} s {}, {} run, commit {}, {}, {} cpus{}",
        workload::NODES,
        workload::NET_SEED,
        workload::PAIRS,
        args.seed,
        args.seconds,
        if args.trace { "of replays" } else { "window" },
        if args.trace { "traced" } else { "untraced" },
        provenance.git_commit,
        provenance.rustc,
        provenance.host_cpus,
        if args.quick { ", QUICK (not comparable)" } else { "" }
    );

    let result = if args.trace {
        run::traced(w, &cfg, args.trace_out.as_deref())?
    } else {
        run::untraced(w, &cfg)?
    };
    result.print();
    if let Some(path) = &args.out {
        std::fs::write(path, result_file(&provenance, &result).pretty())?;
    }
    // the driver reads the last line
    println!("{}", result.driver_line());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark failed its own checks: see the flag lines");
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Res<ExitCode> {
    let load = |path: &str| -> Res<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (file_a, file_b) = (load(a)?, load(b)?);
    println!("{}", compare::describe("A", &file_a));
    println!("{}", compare::describe("B", &file_b));
    let comparison = compare::compare(&file_a, &file_b)?;
    compare::print(&comparison);
    Ok(if compare::any_worse(&comparison) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
