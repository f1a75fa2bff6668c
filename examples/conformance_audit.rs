//! Conformance audit: probe all six of the paper's testbed servers plus
//! the RFC 7540 reference endpoint, printing a compact deviation report —
//! the reproduction of Table III viewed through a compliance lens.
//!
//! ```sh
//! cargo run --release --example conformance_audit
//! ```

use h2ready::scope::probes::Reaction;
use h2ready::scope::testbed::Testbed;
use h2ready::scope::H2Scope;
use h2ready::server::{ServerProfile, SiteSpec};

fn main() {
    let scope = H2Scope::new();
    println!("HTTP/2 conformance audit — deviations from RFC 7540\n");
    for profile in ServerProfile::testbed_and_reference() {
        let name = format!("{} {}", profile.name, profile.version);
        let h2c = h2ready::scope::probes::negotiation::h2c_upgrade(
            &h2ready::scope::Target::testbed(profile.clone(), SiteSpec::benchmark()),
        );
        let report = scope.characterize(&Testbed::new(profile, SiteSpec::benchmark()));
        let mut deviations: Vec<String> = Vec::new();

        if !report.flow_control.headers_at_zero_window {
            deviations
                .push("applies flow control to HEADERS (RFC 7540 §6.9: DATA only)".to_string());
        }
        if report.flow_control.zero_update_stream != Reaction::RstStream {
            deviations.push(format!(
                "zero WINDOW_UPDATE on a stream -> {} (RFC: stream error / RST_STREAM)",
                report.flow_control.zero_update_stream
            ));
        }
        if report.flow_control.zero_update_conn != Reaction::Goaway {
            deviations.push(format!(
                "zero WINDOW_UPDATE on the connection -> {} (RFC: connection error / GOAWAY)",
                report.flow_control.zero_update_conn
            ));
        }
        if report.flow_control.large_update_stream != Reaction::RstStream {
            deviations.push("stream window overflow not answered with RST_STREAM".to_string());
        }
        if report.flow_control.large_update_conn != Reaction::Goaway {
            deviations.push("connection window overflow not answered with GOAWAY".to_string());
        }
        if report.priority.self_dependency != Reaction::RstStream {
            deviations.push(format!(
                "self-dependent stream -> {} (RFC §5.3.1: stream error / RST_STREAM)",
                report.priority.self_dependency
            ));
        }
        if !report.priority.passes() {
            deviations.push("priority tree not honored when scheduling DATA".to_string());
        }
        if !report.push.supported && report.server != "RFC 7540" {
            // Push is optional; report it as a gap, not a violation.
            deviations.push("server push not implemented (optional feature)".to_string());
        }
        if (report.hpack.ratio - 1.0).abs() < 1e-9 {
            deviations
                .push("HPACK dynamic table unused for response headers (ratio = 1.0)".to_string());
        }

        println!("{name}  (h2c upgrade: {})", if h2c { "yes" } else { "no" });
        if deviations.is_empty() {
            println!("  fully conformant on every probe");
        }
        for d in &deviations {
            println!("  - {d}");
        }
        println!();
    }
}
