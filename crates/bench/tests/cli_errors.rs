//! `ibwan-sim` turns unreadable, unparsable, and unrunnable scenario files
//! into a one-line error naming the problem and exit status 2 — never a
//! panic (exit 101) from deep inside `Scenario::run`.

use std::process::Command;

/// Write `json` to a scratch file, run `ibwan-sim` on it, and return the
/// exit code and stderr.
fn run_on(name: &str, json: &str) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("ibwan-sim-cli-{}-{name}.json", std::process::id()));
    std::fs::write(&path, json).expect("write scratch scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_ibwan_sim"))
        .arg(&path)
        .output()
        .expect("spawn ibwan-sim");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_scenarios_exit_2_with_a_named_error() {
    let cases = [
        ("not-json", "this is not json", "invalid scenario"),
        (
            "missing-iters",
            r#"{ "name": "x", "topology": {}, "workload": { "kind": "mpi_latency", "size": 4 } }"#,
            "iters",
        ),
        (
            "cg-16x2",
            r#"{ "name": "x", "topology": {}, "workload": { "kind": "nas", "benchmark": "cg", "ranks_per_cluster": 16 } }"#,
            "square",
        ),
        (
            "is-6x2",
            r#"{ "name": "x", "topology": {}, "workload": { "kind": "nas", "benchmark": "is", "ranks_per_cluster": 6 } }"#,
            "power-of-two",
        ),
        (
            "loss-2^32",
            r#"{ "name": "x", "topology": { "loss_ppm": 4294967296 }, "workload": { "kind": "mpi_latency", "size": 4, "iters": 5 } }"#,
            "loss_ppm",
        ),
    ];
    for (name, json, expect) in cases {
        let (code, stderr) = run_on(name, json);
        assert_eq!(code, Some(2), "{name}: stderr {stderr}");
        assert!(
            stderr.contains(expect),
            "{name}: {stderr:?} lacks {expect:?}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn unreadable_scenario_file_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_ibwan_sim"))
        .arg("/nonexistent/scenario.json")
        .output()
        .expect("spawn ibwan-sim");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
