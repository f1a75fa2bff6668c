//! Quickstart: install a simulated server in the testbed, survey it with
//! H2Scope and read its verdicts — the paper's core workflow in a dozen
//! lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use h2ready::scope::expected::Verdicts;
use h2ready::scope::probes::{multiplexing, ping};
use h2ready::scope::{H2Scope, Target};
use h2ready::server::{ServerProfile, SiteSpec};

fn main() {
    // Pick a server implementation — here H2O, one of the three servers
    // the paper found to implement priorities and push.
    let target = Target::testbed(ServerProfile::h2o(), SiteSpec::testbed());
    let report = H2Scope::new().survey(&target);
    let v = Verdicts::of(&report);
    let show = |reaction: Option<_>| reaction.map_or("unknown".to_string(), |r| format!("{r}"));

    println!("server          : {:?}", v.server_name);
    println!("ALPN / NPN      : {} / {}", v.alpn_h2, v.npn_h2);
    println!("max concurrent  : {:?}", v.settings.max_concurrent_streams);
    println!("1-octet window  : {:?}", v.small_window);
    println!("zero WU (stream): {}", show(v.zero_update_stream));
    println!("zero WU (conn)  : {}", show(v.zero_update_conn));
    println!(
        "priority test   : {:?} (last-DATA-frame rule)",
        v.by_last_frame
    );
    println!("self-dependency : {}", show(v.self_dependency));
    println!("server push     : {:?}", v.push);
    if let Some(hpack) = &report.hpack {
        println!("HPACK ratio     : {:.3}", hpack.ratio());
    }

    // The two probes the paper runs only in its testbed.
    println!("multiplexing    : {}", multiplexing::probe(&target, 4));
    let rtt_ms = ping::probe(&target, 5).rtt_ms;
    println!(
        "PING RTT        : {:.3} ms median over {} samples",
        ping::median(&rtt_ms),
        rtt_ms.len()
    );
}
