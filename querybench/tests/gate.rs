//! The correctness gate must be able to fail, and the command line must
//! refuse bad input without printing a result. Run with
//! `cargo test --release` (the debug-built simulator is too slow).

use std::process::{Command, Output};

fn querybench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_querybench"))
        .args(args)
        .output()
        .expect("querybench runs")
}

/// `(correct, attempted, failed)` from a one-second sockets-storage run.
fn gate(extra: &[&str]) -> (bool, u64, u64) {
    let mut args = vec![
        "--workload",
        "sockets-storage",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    args.extend_from_slice(extra);
    let out = querybench(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = minijson::Value::parse(last).expect("the result line is JSON");
    let num = |k: &str| v.get(k).and_then(|x| x.as_u64()).expect(k);
    let correct = v.get("correct").and_then(|x| x.as_bool()).expect("correct");
    (correct, num("attempted"), num("failed"))
}

#[test]
fn clean_run_is_correct() {
    let (correct, attempted, failed) = gate(&[]);
    assert!(correct);
    assert!(attempted > 0);
    assert_eq!(failed, 0);
}

#[test]
fn perturbed_reference_digest_fails_a_query() {
    let (correct, _, failed) = gate(&["--fault", "digest"]);
    assert!(!correct);
    assert_eq!(failed, 1);
}

#[test]
fn flipped_answer_bit_fails_a_query() {
    let (correct, _, failed) = gate(&["--fault", "bit"]);
    assert!(!correct);
    assert_eq!(failed, 1);
}

#[test]
fn dry_run_prints_standalone_scenarios() {
    let out = querybench(&["--workload", "mpi-apps", "--seed", "4", "--dry-run"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty());
    for line in lines {
        ibwan_core::scenario::Scenario::from_json(line).expect("each line is a scenario");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "mpi-apps", "--seconds", "1", "--trace", "0"],
        &[
            "--workload",
            "mpi-apps",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "mpi-apps",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = querybench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
