//! Golden snapshot of the full `--workspace` run. Its count lines
//! (atomic sites, inheriting manifests, quirk fields, probes) are
//! compared byte for byte, so silent registry shrinkage fails loudly.
//!
//! When a legitimate change shifts a count, regenerate with:
//! `cargo run -p h2check -- --workspace > crates/h2check/tests/golden_workspace.txt`

use h2check::workspace::{repo_root, run_workspace};

const GOLDEN: &str = include_str!("golden_workspace.txt");

#[test]
fn workspace_run_matches_golden_snapshot() {
    let report = run_workspace(&repo_root());
    let rendered = report.render();
    assert_eq!(
        rendered, GOLDEN,
        "workspace report drifted from the golden snapshot; \
         if intentional, regenerate golden_workspace.txt"
    );
}
