//! Pins the rendered robustness and attack matrices to the committed
//! golden snapshot that `scripts/cli-smoke.sh abuse` (CI job `cli-smoke`)
//! diffs against. Both matrices are pure functions of the server
//! profiles, so any engine, quirk or attack-vector change that moves
//! them must regenerate `golden_robustness.txt` deliberately:
//!
//! ```text
//! cargo run --release -p h2ready-bench --bin repro -- abuse \
//!   | sed -n '/^Robustness matrix/,$p' | sed '${/^$/d}' \
//!   > crates/bench/tests/golden_robustness.txt
//! ```

use h2ready_bench::abuse::render_report;

#[test]
fn abuse_matrices_match_the_committed_golden() {
    let golden = include_str!("golden_robustness.txt");
    let rendered = render_report(&h2attack::robustness_matrix(), &h2attack::attack_matrix());
    assert_eq!(
        rendered.trim_end_matches('\n'),
        golden.trim_end_matches('\n'),
        "abuse matrices drifted; regenerate tests/golden_robustness.txt (see module docs)"
    );
}
