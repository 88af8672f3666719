//! Hostile input to the artifact readers: `trace_diff` and
//! `bench_compare` must reject a deeply nested document with exit status 2
//! (malformed input), not die on a stack overflow, and `bench_compare`
//! must reject a malformed command line with exit status 2 before it
//! compares anything.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A checked-in artifact both tools accept.
fn good_artifact() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fault_matrix.json")
}

/// A fresh scratch directory for this test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// 200k levels of `unit`: far past any stack, and past `json::MAX_DEPTH`.
fn deep(unit: &str) -> String {
    unit.repeat(200_000)
}

fn exit_code(cmd: &mut Command) -> Option<i32> {
    let out = cmd.output().expect("the binary runs");
    out.status.code()
}

#[test]
fn trace_diff_exits_2_on_deep_nesting() {
    let dir = scratch("trace_diff_deep");
    for (file, unit) in [("arrays.json", "["), ("objects.json", "{\"a\":")] {
        let path = dir.join(file);
        std::fs::write(&path, deep(unit)).expect("write");
        let code = exit_code(
            Command::new(env!("CARGO_BIN_EXE_trace_diff"))
                .args([good_artifact().as_os_str(), path.as_os_str()]),
        );
        assert_eq!(code, Some(2), "trace_diff on {file}");
        let code = exit_code(
            Command::new(env!("CARGO_BIN_EXE_trace_diff"))
                .args([path.as_os_str(), good_artifact().as_os_str()]),
        );
        assert_eq!(code, Some(2), "trace_diff with {file} as baseline");
    }
}

#[test]
fn bench_compare_exits_2_on_deep_nesting() {
    let baseline = good_artifact().parent().expect("repo root").to_path_buf();
    for (name, unit) in [("arrays", "["), ("objects", "{\"a\":")] {
        let dir = scratch(&format!("bench_compare_deep_{name}"));
        std::fs::write(dir.join("BENCH_fault_matrix.json"), deep(unit)).expect("write");
        let code = exit_code(
            Command::new(env!("CARGO_BIN_EXE_bench_compare"))
                .arg("--baseline")
                .arg(&baseline)
                .arg("--candidate")
                .arg(&dir)
                .args(["--scenario", "fault_matrix"]),
        );
        assert_eq!(code, Some(2), "bench_compare on deep {name}");
    }
}

#[test]
fn bench_compare_still_accepts_a_matching_artifact() {
    let baseline = good_artifact().parent().expect("repo root").to_path_buf();
    for extra in [&[][..], &["--host-factor", "1.5"][..]] {
        let code = exit_code(
            Command::new(env!("CARGO_BIN_EXE_bench_compare"))
                .arg("--baseline")
                .arg(&baseline)
                .arg("--candidate")
                .arg(&baseline)
                .args(["--scenario", "fault_matrix"])
                .args(extra),
        );
        assert_eq!(code, Some(0), "bench_compare {extra:?}");
    }
}

#[test]
fn bench_compare_exits_2_on_bad_flags_without_comparing() {
    let root = good_artifact().parent().expect("repo root").to_path_buf();
    let root = root.to_str().expect("utf-8 path");
    let dirs = ["--baseline", root, "--candidate", root];
    let cases: Vec<Vec<&str>> = vec![
        vec!["--bogus"],
        vec!["--host-factor", "banana", "--bogus"],
        vec!["--host-factor", "banana"],
        vec!["--host-factor", "0"],
        vec!["--host-factor", "-2"],
        vec!["--host-factor", "NaN"],
        vec!["--host-factor", "inf"],
        vec!["--scenario", "no_such_scenario"],
        vec!["--scenario"],
        vec!["--host-factor"],
    ];
    for extra in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .args(dirs)
            .args(extra)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "bench_compare {extra:?}");
        assert!(
            out.stdout.is_empty(),
            "bench_compare {extra:?} compared: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // A flag with no value where the directory should be.
    for args in [vec!["--baseline"], vec!["--baseline", root, "--candidate"]] {
        let code = exit_code(Command::new(env!("CARGO_BIN_EXE_bench_compare")).args(&args));
        assert_eq!(code, Some(2), "bench_compare {args:?}");
    }
}
