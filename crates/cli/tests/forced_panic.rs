//! The forced-panic drill, against the real `tacc` binary: with
//! `TACC_GUARD_FORCE_PANIC=1` a budgeted q-learning solve panics in its
//! primary stage and the guard degrades to the greedy fallback — still
//! feasible, no error escapes — and the breaker trip shows in the obs
//! registry (what `tacc obs-report --solve` prints). The variable is set
//! on the child process only, so no test thread ever sees it.

use std::process::Command;

use serde_json::Value;

#[test]
fn a_forced_primary_panic_degrades_to_a_feasible_fallback() {
    let dir = std::env::temp_dir().join(format!("tacc-forced-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stream = dir.join("solve.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_tacc"))
        .args(["solve", "--devices", "12", "--servers", "3", "--seed", "9", "--json"])
        .args(["--algorithm", "q-learning", "--budget", "10"])
        .args(["--obs-out", stream.to_str().unwrap()])
        .env(tacc_guard::FORCE_PANIC_ENV, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "tacc solve failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("\"degradation\": \"Fallback\""), "{stdout}");
    assert!(stdout.contains("\"feasible\": true"), "{stdout}");
    assert!(stdout.contains("\"panics_caught\": 1"), "{stdout}");

    let text = std::fs::read_to_string(&stream).unwrap();
    let registry: Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
    assert_eq!(registry.get("kind"), Some(&Value::Str("registry".to_owned())), "{text}");
    let counter = |name: &str| match registry.get("counters").and_then(|c| c.get(name)) {
        Some(Value::UInt(n)) => *n,
        _ => 0,
    };
    assert!(counter("guard.breaker_trips") >= 1, "{text}");
    assert!(counter("guard.panics_caught") >= 1, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
