//! Pins the rendered robustness matrix to the committed golden snapshot
//! that `scripts/cli-smoke.sh abuse` (CI job `cli-smoke`) diffs against.
//! The matrix is a pure function of the server profiles, so any engine
//! or quirk change that moves it must regenerate `golden_robustness.txt`
//! deliberately:
//!
//! ```text
//! cargo run --release -p h2ready-bench --bin repro -- abuse --scale 0.01 --seed 0 \
//!   | sed -n '/^Robustness matrix/,/^$/p' | sed '/^$/d' \
//!   > crates/bench/tests/golden_robustness.txt
//! ```

use h2ready_bench::abuse::render_robustness;

#[test]
fn robustness_matrix_matches_the_committed_golden() {
    let golden = include_str!("golden_robustness.txt");
    let rendered = render_robustness(&h2attack::robustness_matrix());
    let rendered = rendered.trim_end_matches('\n');
    assert_eq!(
        rendered,
        golden.trim_end_matches('\n'),
        "robustness matrix drifted; regenerate tests/golden_robustness.txt (see module docs)"
    );
}
