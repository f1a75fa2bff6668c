//! Pins the rendered robustness and attack matrices, and the
//! `ABUSE_campaign.json` document they render to, to the committed
//! golden snapshots that `scripts/cli-smoke.sh abuse` (CI job
//! `cli-smoke`) diffs against. Both matrices are pure functions of the
//! server profiles, so any engine, quirk or attack-vector change that
//! moves them must regenerate both snapshots deliberately:
//!
//! ```text
//! cargo run --release -p h2ready-bench --bin repro -- abuse --out-dir /tmp \
//!   | sed -n '/^Robustness matrix/,$p' | sed '${/^$/d}' \
//!   > crates/bench/tests/golden_robustness.txt
//! cp /tmp/ABUSE_campaign.json crates/bench/tests/golden_abuse.json
//! ```

use h2ready_bench::abuse::{render_json, render_report};

#[test]
fn abuse_matrices_match_the_committed_golden() {
    let robustness = h2attack::robustness_matrix();
    let attacks = h2attack::attack_matrix();
    let golden = include_str!("golden_robustness.txt");
    let rendered = render_report(&robustness, &attacks);
    assert_eq!(
        rendered.trim_end_matches('\n'),
        golden.trim_end_matches('\n'),
        "abuse matrices drifted; regenerate tests/golden_robustness.txt (see module docs)"
    );
    // The text shows reactions and worst costs only; the JSON pins every
    // cell's frames, octets, cost and amplification.
    assert_eq!(
        render_json(&robustness, &attacks),
        include_str!("golden_abuse.json"),
        "ABUSE_campaign.json drifted; regenerate tests/golden_abuse.json (see module docs)"
    );
}
