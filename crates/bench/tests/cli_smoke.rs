//! End-to-end smoke tests of the `mtb` CLI binary.

use std::process::Command;

fn mtb(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtb"))
        .args(args)
        .output()
        .expect("mtb binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = mtb(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("metbench | btmz | siesta | synthetic"));
}

#[test]
fn run_executes_a_tiny_case() {
    let (ok, stdout, stderr) = mtb(&[
        "run",
        "--app",
        "metbench",
        "--case",
        "C",
        "--scale",
        "0.001",
        "--iterations",
        "5",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("metbench case C"), "{stdout}");
    assert!(stdout.contains("imbalance"));
}

#[test]
fn run_with_gantt_renders_a_chart() {
    let (ok, stdout, _) = mtb(&[
        "run",
        "--app",
        "synthetic",
        "--scale",
        "0.001",
        "--iterations",
        "2",
        "--gantt",
    ]);
    assert!(ok);
    assert!(stdout.contains("legend:"), "{stdout}");
}

#[test]
fn dynamic_flag_reports_policy_activity() {
    let (ok, stdout, _) = mtb(&[
        "run",
        "--app",
        "metbench",
        "--scale",
        "0.002",
        "--iterations",
        "10",
        "--dynamic",
    ]);
    assert!(ok);
    assert!(stdout.contains("dynamic policy:"), "{stdout}");
    assert!(stdout.contains(" remaps"), "two-level controller: {stdout}");
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("golden snapshot present")
}

/// `mtb tables N [--gantt]` and `mtb exp NAME` reproduce, byte for byte,
/// the stdout of the former per-table and per-experiment binaries
/// (snapshots under `tests/golden/`). `exp fidelity` takes about a minute
/// in a debug build; CI diffs it against its snapshot in release.
#[test]
fn tables_match_the_golden_snapshots() {
    let mut all_gantt = String::new();
    for n in 1..=6 {
        let t = &n.to_string();
        let (ok, stdout, stderr) = mtb(&["tables", t]);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(stdout, golden(&format!("table{t}")), "mtb tables {t}");
        if n <= 3 {
            // Tables I-III have no figure: --gantt changes nothing.
            all_gantt.push_str(&stdout);
            continue;
        }
        let (ok, stdout, stderr) = mtb(&["tables", t, "--gantt"]);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(
            stdout,
            golden(&format!("table{t}_gantt")),
            "mtb tables {t} --gantt"
        );
        all_gantt.push_str(&stdout);
    }
    let (ok, stdout, _) = mtb(&["tables", "all", "--gantt"]);
    assert!(ok);
    assert_eq!(stdout, all_gantt, "`all` is tables 1 to 6 in order");

    for name in [
        "fig1",
        "report",
        "ablation",
        "dynamic",
        "kernel",
        "noise",
        "redistribution",
        "sharelaw",
        "cluster",
        "energy",
        "control",
        "seeds",
        "scaling",
        "waitpolicy",
    ] {
        let (ok, stdout, stderr) = mtb(&["exp", name]);
        assert!(ok, "mtb exp {name}: {stderr}");
        assert_eq!(stdout, golden(&format!("exp_{name}")), "mtb exp {name}");
    }
}

/// Malformed option values are rejected with the option named, never
/// replaced by a default (a full-scale cycle-accurate run takes a day).
#[test]
fn malformed_option_values_fail() {
    for args in [
        &["run", "--app", "metbench", "--scale", "abc"][..],
        &["run", "--app", "metbench", "--noise", "80"],
        &["run", "--app", "metbench", "--kernel", "foo"],
        &["suggest", "--top", "x"],
    ] {
        let (ok, _, stderr) = mtb(args);
        assert!(!ok, "mtb {args:?} must fail");
        assert!(stderr.contains(args[args.len() - 2]), "{args:?}: {stderr}");
    }
    let (ok, _, stderr) = mtb(&["exp", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}

/// Malformed `MTB_JOBS` / `MTB_CHECKPOINT_EVERY` values warn on stderr,
/// naming the value and the default each command falls back to.
#[test]
fn malformed_env_values_warn() {
    let stderr_with = |var: &str, val: &str, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mtb"))
            .env(var, val)
            .args(args)
            .output()
            .expect("mtb binary runs");
        assert!(out.status.success(), "mtb {args:?} with {var}={val}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let snap = std::env::temp_dir().join(format!("mtb-env-warn-{}.snap", std::process::id()));
    let snap_arg = snap.to_str().expect("UTF-8 temp path");
    let stderr = stderr_with(
        "MTB_JOBS",
        "fourx",
        &[
            "checkpoint-identity",
            "--save",
            snap_arg,
            "--app",
            "metbench",
            "--case",
            "A",
            "--stepping",
            "quantum",
            "--fidelity",
            "meso",
        ],
    );
    std::fs::remove_file(&snap).ok();
    assert!(
        stderr.contains(r#"MTB_JOBS="fourx" is not a number; falling back to the default (1)"#),
        "checkpoint-identity: {stderr}"
    );
    let stderr = stderr_with(
        "MTB_JOBS",
        "fourx",
        &["table-dynamic", "--smoke", "--no-cache"],
    );
    assert!(
        stderr.contains(r#"MTB_JOBS="fourx" is not a number; falling back to the default (4)"#),
        "table-dynamic: {stderr}"
    );
    let stderr = stderr_with(
        "MTB_CHECKPOINT_EVERY",
        "abc",
        &["tables", "4", "--no-cache"],
    );
    assert!(
        stderr.contains(r#"MTB_CHECKPOINT_EVERY="abc" is not an event count"#),
        "tables: {stderr}"
    );
}

#[test]
fn vanilla_kernel_rejects_procfs_cases() {
    let (ok, _, stderr) = mtb(&[
        "run", "--app", "metbench", "--case", "C", "--scale", "0.001", "--kernel", "vanilla",
    ]);
    assert!(
        !ok,
        "case C needs priority 6 via procfs — impossible on vanilla"
    );
    assert!(stderr.contains("hmt_priority"), "{stderr}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, _, stderr) = mtb(&["run", "--app", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app"));
    let (ok2, _, stderr2) = mtb(&["frobnicate"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"));
}

#[test]
fn sweep_prints_all_differences() {
    let (ok, stdout, _) = mtb(&["sweep", "--app", "synthetic"]);
    assert!(ok);
    for d in 0..=4 {
        assert!(stdout.contains(&format!("diff {d}")), "{stdout}");
    }
}
