//! The paper's §VI DoS vectors, quantified: how much server memory or
//! state can an attacker pin per octet sent, and what the corresponding
//! mitigation buys.
//!
//! ```sh
//! cargo run --release --example dos_vectors
//! ```

use h2ready::dos::{priority_churn, slow_receiver, table_thrash};
use h2ready::scope::Target;
use h2ready::server::{ServerProfile, SiteSpec};

fn main() {
    let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());

    println!("== slow receiver (flow control as a memory pin) ==");
    for streams in [1u32, 4, 16, 64] {
        let report = slow_receiver::attack(&victim, streams);
        println!(
            "  {streams:>3} streams: attacker sent {:>5} B, pinned {:>9} B  ({}x amplification)",
            report.attacker_octets, report.pinned_octets, report.amplification
        );
    }
    let defended = slow_receiver::attack_with_min_window_defense(&victim, 64, 1_024);
    println!(
        "  with a minimum-window policy (>= 1024): pinned {} B",
        defended.pinned_octets
    );
    let freeze = slow_receiver::connection_window_freeze(&victim, 16);
    println!(
        "  connection-window freeze variant: leaked {} B, pinned {} B \
         (window minimums cannot stop this one)",
        freeze.leaked_octets, freeze.pinned_octets
    );

    println!("\n== HPACK dynamic-table pressure ==");
    for requests in [50u32, 200, 800] {
        let report = table_thrash::attack(&table_thrash::vulnerable_victim(), 1 << 26, requests);
        println!(
            "  obedient victim, {requests:>3} requests: encoder table {:>7} B",
            report.encoder_table_octets
        );
    }
    let capped = table_thrash::attack(&table_thrash::capped_victim(), 1 << 26, 800);
    println!(
        "  capped victim (4 KiB ceiling),  800 requests: encoder table {:>7} B",
        capped.encoder_table_octets
    );

    println!("\n== priority-tree churn ==");
    for depth in [64u32, 256, 1_024] {
        let report = priority_churn::attack(&victim, depth, 20);
        println!(
            "  chain depth {depth:>5}: {:>5} frames ({:>6} B) -> {:>5} tree nodes \
             ({} after pruning)",
            report.frames_sent,
            report.attacker_octets,
            report.tree_nodes,
            report.tree_nodes_after_prune
        );
    }
    println!(
        "\nEvery vector uses only protocol-legal frames — the paper's point that\n\
         HTTP/2's new machinery must be provisioned and policed, not just implemented."
    );
}
