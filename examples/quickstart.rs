//! Quickstart: install a simulated server in the testbed and characterize
//! it with H2Scope — the paper's core workflow in a dozen lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use h2ready::scope::{H2Scope, Target};
use h2ready::server::{ServerProfile, SiteSpec};

fn main() {
    let scope = H2Scope::new();

    // Pick a server implementation — here H2O, one of the three servers
    // the paper found to implement priorities and push.
    let testbed = Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark());
    let report = scope.characterize(&testbed);

    println!("server          : {} {}", report.server, report.version);
    println!(
        "ALPN / NPN      : {} / {}",
        report.negotiation.alpn_h2, report.negotiation.npn_h2
    );
    println!("multiplexing    : {}", report.multiplexing.parallel);
    println!(
        "max concurrent  : {:?}",
        report.multiplexing.max_concurrent_streams
    );
    println!("1-octet window  : {:?}", report.flow_control.small_window);
    println!(
        "zero WU (stream): {}",
        report.flow_control.zero_update_stream
    );
    println!("zero WU (conn)  : {}", report.flow_control.zero_update_conn);
    println!(
        "priority test   : {}",
        if report.priority.passes() {
            "pass"
        } else {
            "fail"
        }
    );
    println!("self-dependency : {}", report.priority.self_dependency);
    println!("HPACK ratio     : {:.3}", report.hpack.ratio);
    println!(
        "PING RTT        : {:.3} ms median over {} samples",
        h2ready::scope::probes::ping::median(&report.ping.rtt_ms),
        report.ping.rtt_ms.len()
    );
}
