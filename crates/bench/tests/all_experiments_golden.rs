//! Golden output of the paper-experiment suite.
//!
//! `all_experiments` runs every table and figure on the deterministic
//! simulator, so its stdout is identical run to run and between debug
//! and release builds. Pinning it byte for byte makes any behavioural
//! change anywhere under the experiments — protocol, envelope,
//! latencies — show up as a diff. An intended change is accepted by
//! regenerating the file:
//! `cargo run --release -p deceit_bench --bin all_experiments > crates/bench/tests/golden/all_experiments.txt`.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/all_experiments.txt");

#[test]
fn all_experiments_output_matches_golden() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_all_experiments")).output().expect("run all_experiments");
    assert!(
        out.status.success(),
        "all_experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    if actual != GOLDEN {
        let first = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        let at = first.unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "all_experiments output differs from tests/golden/all_experiments.txt at line {}:\n  golden: {:?}\n  actual: {:?}",
            at + 1,
            GOLDEN.lines().nth(at),
            actual.lines().nth(at)
        );
    }
}
