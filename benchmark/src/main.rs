//! `sslperf-benchmark`: one run of one workload, or the whole set.
//!
//! ```text
//! sslperf-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! sslperf-benchmark [--seed N] [--seconds S] [--reverse]           every workload, each run its own process
//! ```
//!
//! `benchmark/run.sh` builds this binary and passes its arguments through.

use sslperf_benchmark::alloc::CountingAllocator;
use sslperf_benchmark::metrics::{
    render_benchmark_json, render_interactions, RUN_SECONDS, WORKLOADS,
};
use sslperf_benchmark::procfs::{cpu_model, nproc};
use sslperf_benchmark::report::json_string;
use sslperf_benchmark::run::{end_to_end, traced, Plan};
use sslperf_benchmark::workload::{client_count, Workload};
use sslperf_core::ciphers::Aes;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str =
    "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--smoke] \
                     [--reverse] [--out-dir DIR] [--results FILE] | --selfcheck | --describe | \
                     --emit-benchmark-json";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    reverse: bool,
    out_dir: PathBuf,
    results: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        reverse: false,
        out_dir: PathBuf::from("benchmark/out"),
        results: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => {
                args.smoke = true;
                args.seconds = 1;
            }
            "--reverse" => args.reverse = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--results" => args.results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn record_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// One run of one workload: prints every metric for people on stderr and
/// the driver's result as the last line of stdout.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the workloads are {}", known.join(", "))
    })?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let plan = Plan::new(args.seconds, args.smoke);
    let record = if args.trace {
        traced(&workload, args.seed, plan, &args.out_dir.join(format!("trace-{name}.jsonl")))
    } else {
        end_to_end(&workload, args.seed, plan)
    };
    // Rendering fails when the run emitted a metric BENCHMARK.json does
    // not declare, or missed one it does: no result line then.
    let (line, json, table) = (record.result_line()?, record.to_json()?, record.to_table()?);
    let path = record_path(&args.out_dir, name, args.trace);
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprint!("{table}");
    println!("{line}");
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Every workload, untraced then traced, each run in a process of its
/// own; assembles `results.json` from the runs' records.
fn run_suite(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if args.reverse {
        names.reverse();
    }
    let mut records = Vec::new();
    for name in &names {
        for trace in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir)
                .stdout(Stdio::null());
            if args.smoke {
                child.arg("--smoke");
            } else {
                child.args(["--seconds", &args.seconds.to_string()]);
            }
            let status = child.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{name} --trace {} exited with {status}", u8::from(trace)));
            }
            let path = record_path(&args.out_dir, name, trace);
            let record =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.push(record.trim_end().to_owned());
        }
    }
    let env = |name: &str| std::env::var(name).unwrap_or_default();
    let total_wall_s = started.elapsed().as_secs_f64();
    let meta = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"clients\": {}, \"nproc\": {}, \"cpu_model\": {}, \
         \"SSLPERF_LIMBS\": {}, \"SSLPERF_AES\": {}, \"ni_available\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"workload_order\": {}, \"total_wall_s\": {total_wall_s}}}",
        args.seed,
        args.seconds,
        client_count(),
        nproc(),
        json_string(&cpu_model()),
        json_string(&env("SSLPERF_LIMBS")),
        json_string(&env("SSLPERF_AES")),
        Aes::ni_available(),
        json_string(&command_output("rustc", &["--version"])),
        json_string(&command_output("git", &["rev-parse", "HEAD"])),
        json_string(&names.join(",")),
    );
    let results = format!(
        "{{\"schema\": \"sslperf-benchmark/v1\", \"meta\": {meta}, \"runs\": [\n{}\n]}}\n",
        records.join(",\n")
    );
    let path = args.results.clone().unwrap_or_else(|| args.out_dir.join("results.json"));
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({} runs, total wall time {total_wall_s:.1} s)",
        path.display(),
        records.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", render_benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--describe") => {
            print!("{}", render_interactions());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let outcome = parse_args(&argv).and_then(|args| match args.workload.clone() {
        Some(name) => run_one(&args, &name),
        None => run_suite(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sslperf-benchmark: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
