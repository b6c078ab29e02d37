//! A tiny-scale run of each workload, untraced and traced, through the
//! real command line: it exits 0, reports `correct`, and prints exactly
//! the metrics `BENCHMARK.json` names, each with a unit.

use std::path::PathBuf;
use std::process::Command;

/// Metric names listed under `section` of the repository's
/// `BENCHMARK.json` (sections appear in the order the file defines).
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = ["\"per_layer\"", "\"run_seconds\""]
        .iter()
        .filter_map(|k| body[1..].find(k).map(|i| i + 1))
        .min()
        .unwrap_or(body.len());
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Runs the benchmark and returns its stdout, asserting a clean exit.
fn run(workload: &str, trace: u8) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_blameit-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
        assert!(last.contains(",\"failed\":0,\"metrics\":{"), "{last}");
        let names = declared(section);
        assert!(!names.is_empty());
        for name in &names {
            let key = format!("\"{name}\":{{\"value\":");
            assert!(
                last.contains(&key),
                "{workload}: {name} missing from {last}"
            );
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name.as_str())),
                "{workload}: {name} not printed by name"
            );
        }
        assert_eq!(
            last.matches("\"unit\":").count(),
            names.len(),
            "{workload} prints metrics BENCHMARK.json does not name"
        );
    }
}

#[test]
fn tick_default_smoke() {
    check("tick-default");
}

#[test]
fn daemon_steady_smoke() {
    check("daemon-steady");
}

#[test]
fn daemon_surge_smoke() {
    check("daemon-surge");
}
