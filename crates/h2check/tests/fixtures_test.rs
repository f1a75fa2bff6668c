//! Self-tests over the known-bad fixture sources: each fixture must
//! produce exactly its expected finding(s), and the `h2check` binary
//! must exit non-zero on every bad fixture (zero on the clean one).

use std::path::PathBuf;
use std::process::Command;

use h2check::workspace::check_file;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn lock_cycle_fixture_produces_exactly_one_lockorder_error() {
    let report = check_file(&fixture("lock_cycle.rs"));
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].kind, "lockorder");
    assert!(
        report.findings[0].message.contains("metrics")
            && report.findings[0].message.contains("traces"),
        "cycle message should name both locks: {}",
        report.findings[0].message
    );
}

#[test]
fn quirk_fixture_produces_exactly_one_registry_error() {
    let report = check_file(&fixture("quirk_no_rule.rs"));
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].kind, "quirk-registry");
    assert!(report.findings[0].message.contains("mystery_knob"));
}

#[test]
fn unsorted_map_fixture_produces_exactly_one_detiter_error() {
    let report = check_file(&fixture("unsorted_map_iteration.rs"));
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].kind, "detiter");
    assert_eq!(report.findings[0].line, 7);
    assert!(report.findings[0].message.contains("hash order"));
}

#[test]
fn unregistered_atomic_fixture_flags_declaration_and_use() {
    let report = check_file(&fixture("unregistered_atomic.rs"));
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    assert!(report.findings.iter().all(|f| f.kind == "atomics"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("ATOMIC_REGISTRY")));
}

#[test]
fn clean_fixture_passes() {
    let report = check_file(&fixture("clean.rs"));
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(!report.failed());
}

#[test]
fn binary_exits_nonzero_on_every_bad_fixture() {
    for name in [
        "lock_cycle.rs",
        "quirk_no_rule.rs",
        "unsorted_map_iteration.rs",
        "unregistered_atomic.rs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_h2check"))
            .arg("--check-file")
            .arg(fixture(name))
            .output()
            .expect("spawn h2check");
        assert!(
            !out.status.success(),
            "{name}: expected failure exit, got {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn binary_exits_zero_on_the_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_h2check"))
        .arg("--check-file")
        .arg(fixture("clean.rs"))
        .output()
        .expect("spawn h2check");
    assert!(
        out.status.success(),
        "clean.rs should pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn the_removed_deny_warnings_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_h2check"))
        .args(["--workspace", "--deny-warnings"])
        .output()
        .expect("spawn h2check");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument `--deny-warnings`"),
        "{stderr}"
    );
}
