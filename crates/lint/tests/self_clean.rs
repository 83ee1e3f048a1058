//! The repo lints itself clean. This is the enforcement half of the
//! tentpole: `cargo test` fails the moment a protocol-path unwrap, an
//! ungated `Pending` variant, a mutate-before-revoke, a stray Relaxed
//! flag, or an unused waiver lands — without waiting for the CI lint
//! job. It also keeps the linter's own registry honest: every ordering
//! allowlist entry must name an atomic the workspace still declares.

use std::path::Path;

#[test]
fn repo_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("read workspace sources");
    assert!(sources.len() > 100, "walker found only {} files — scan set broke", sources.len());
    let (facts, report) = lint::analyze(&sources);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "deceit-lint found {} violation(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
    // The waivers written for this repo are load-bearing: if one stops
    // matching, the unused-waiver rule turns it into a finding above,
    // and this floor catches a waiver-parsing regression that silently
    // drops them all.
    assert!(report.waivers_honored >= 10, "only {} waivers honored", report.waivers_honored);
    // A deleted counter must take its allowlist entry with it; a stale
    // entry would silently pre-approve any future atomic reusing the key.
    let dead: Vec<&str> = lint::rules::DECL_ALLOWLIST
        .iter()
        .copied()
        .filter(|key| !facts.decls.by_key.contains_key(*key))
        .collect();
    assert!(dead.is_empty(), "DECL_ALLOWLIST names undeclared atomics: {dead:?}");
}
