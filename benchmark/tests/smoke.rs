//! End-to-end smoke run: the binary runs the whole set with one-second
//! windows, every run in its own process, and every workload comes out
//! verified with no failed transaction and every declared metric present.

use sslperf_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sslperf-benchmark");

#[test]
fn smoke_run_of_all_four_workloads_is_clean() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-suite");
    let _ = std::fs::remove_dir_all(&out_dir);
    let status = Command::new(BIN)
        .args(["--smoke", "--seed", "7", "--out-dir"])
        .arg(&out_dir)
        .status()
        .expect("spawn the benchmark binary");
    assert!(status.success(), "suite exited with {status}");

    let results = std::fs::read_to_string(out_dir.join("results.json")).expect("results.json");
    assert!(results.contains("\"schema\": \"sslperf-benchmark/v1\""));
    for key in [
        "seed",
        "clients",
        "nproc",
        "cpu_model",
        "ni_available",
        "rustc",
        "git_commit",
        "total_wall_s",
    ] {
        assert!(results.contains(&format!("\"{key}\": ")), "meta lacks {key}");
    }
    for workload in &WORKLOADS {
        for (trace, names) in [
            (0, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (1, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
        ] {
            let path = out_dir.join(format!("run-{}-trace{trace}.json", workload.name));
            let record = std::fs::read_to_string(&path).expect("run record");
            assert!(record.contains("\"correct\": true"), "{}: {record}", path.display());
            assert!(record.contains("\"failed\": 0,"), "{}: {record}", path.display());
            assert!(record.contains("\"calib_ms\": [") && record.contains("\"wake_us\": ["));
            // The record is one line of results.json, verbatim.
            assert!(
                results.contains(record.trim_end()),
                "{} missing from results.json",
                path.display()
            );
            for name in names {
                assert!(
                    record.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{} lacks {name}",
                    path.display()
                );
            }
        }
        let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.jsonl", workload.name)))
            .expect("trace file");
        assert!(trace
            .lines()
            .any(|l| l.contains("\"src\":\"replay\"") && l.contains("\"parent\":null")));
        assert!(trace
            .lines()
            .any(|l| l.contains("\"src\":\"socket\"") && l.contains("\"name\":\"client.feed\"")));
    }
}

#[test]
fn one_run_ends_with_the_drivers_result_line() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-one");
    let output = Command::new(BIN)
        .args([
            "--workload",
            "resumed_1k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("spawn the benchmark binary");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"tx_per_s\": {\"value\": "), "{last}");
    assert!(last.ends_with("\"unit\": \"MiB\"}}}"), "{last}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in
        [&["--workload", "no_such_workload", "--trace", "0"][..], &["--seconds", "0"], &["--bogus"]]
    {
        let output = Command::new(BIN).args(args).output().expect("spawn the benchmark binary");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
