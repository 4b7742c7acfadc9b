//! Smoke-sized runs of every workload through the real binary: each must
//! exit 0, pass its correctness gates, and print every metric of its mode.

use std::process::Command;

const E2E: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "read_p50_ms",
    "read_p90_ms",
    "write_p50_ms",
    "write_p90_ms",
    "goodput_ops_s",
    "server_cpu_us_per_op",
    "ok_frac",
    "resolve_p50_ms",
    "level_p1",
    "wire_bytes_per_write",
];

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_idea-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("runner starts");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    last
}

fn check(workload: &str) {
    let e2e = run(workload, 0);
    for name in E2E {
        assert!(e2e.contains(&format!("\"{name}\": {{\"value\": ")), "{workload}: no {name}");
    }
    let traced = run(workload, 1);
    for name in ["transport.req_bytes", "core.exec_p90_us", "wal.disk_bytes_per_write"] {
        assert!(traced.contains(&format!("\"{name}\": {{\"value\": ")), "{workload}: no {name}");
    }
    assert!(traced.contains("\"trace.overhead_frac\": {\"value\": "), "{workload}: no overhead");
    assert!(!traced.contains("\"setup_s\""), "traced runs print per-layer metrics only");
    assert!(!traced.contains("\"wal.recover_ms\""), "workload-specific timings stay off it");
}

#[test]
fn served_read_mostly_smoke() {
    check("served_read_mostly");
}

#[test]
fn served_durable_writes_smoke() {
    check("served_durable_writes");
}

#[test]
fn sim_paper_n40_smoke() {
    check("sim_paper_n40");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_idea-perfbench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("runner starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
