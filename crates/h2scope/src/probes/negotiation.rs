//! ALPN/NPN negotiation probe (§IV-A): does the site speak HTTP/2, and
//! through which TLS extension?

use netsim::tls::{handshake, PROTO_H2, PROTO_HTTP11};

use crate::target::Target;

/// Result of the negotiation probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegotiationReport {
    /// h2 selected via ALPN.
    pub alpn_h2: bool,
    /// h2 selected via NPN.
    pub npn_h2: bool,
}

impl NegotiationReport {
    /// The site supports HTTP/2 through at least one mechanism.
    pub fn h2(&self) -> bool {
        self.alpn_h2 || self.npn_h2
    }
}

/// Runs both negotiation mechanisms against the target, as H2Scope does.
///
/// Classifies RFC 7540 §3.3: h2 is negotiated via ALPN over TLS.
pub fn probe(target: &Target) -> NegotiationReport {
    target.obs.enter_probe(h2obs::ProbeKind::Negotiation);
    let hs = handshake(target.tls(), &[PROTO_H2, PROTO_HTTP11]);
    NegotiationReport {
        alpn_h2: hs.alpn_selected.as_deref() == Some(PROTO_H2),
        npn_h2: hs.npn_selected.as_deref() == Some(PROTO_H2),
    }
}

/// §IV-A's cleartext path: send an HTTP/1.1 request with `Upgrade: h2c`
/// to the unencrypted port and check for `101 Switching Protocols`
/// followed by working HTTP/2 (the server's SETTINGS and a response to
/// the upgraded request on stream 1).
///
/// Classifies RFC 7540 §3.2: cleartext h2 starts with an HTTP/1.1 Upgrade.
pub fn h2c_upgrade(target: &Target) -> bool {
    use h2server::H2Server;
    use h2wire::{Frame, FrameDecoder, SettingsFrame, CONNECTION_PREFACE};
    use netsim::Pipe;

    let server = H2Server::new_cleartext(target.profile.clone(), target.site.clone());
    let mut pipe = Pipe::connect(server, target.link, 0x42c);
    pipe.client_send(
        format!(
            "GET / HTTP/1.1\r\nHost: {}\r\nConnection: Upgrade, HTTP2-Settings\r\n\
             Upgrade: h2c\r\nHTTP2-Settings: AAMAAABkAARAAAAA\r\n\r\n",
            target.site.authority
        )
        .as_bytes(),
    );
    let arrivals = pipe.run_to_quiescence();
    let first: Vec<u8> = arrivals.iter().flat_map(|a| a.bytes.clone()).collect();
    if !first.starts_with(b"HTTP/1.1 101") {
        return false;
    }
    // Complete the upgrade: client preface + SETTINGS, then expect the
    // server's SETTINGS and a HEADERS frame for stream 1.
    let mut hello = CONNECTION_PREFACE.to_vec();
    Frame::Settings(SettingsFrame::from(h2wire::Settings::new())).encode(&mut hello);
    pipe.client_send(&hello);
    let arrivals = pipe.run_to_quiescence();
    let mut decoder = FrameDecoder::new();
    decoder.set_max_frame_size(h2wire::settings::MAX_MAX_FRAME_SIZE);
    for arrival in arrivals {
        decoder.feed(&arrival.bytes);
    }
    let Ok(frames) = decoder.drain_frames() else {
        return false;
    };
    let settings = frames
        .iter()
        .any(|f| matches!(f, Frame::Settings(s) if !s.ack));
    let response_on_stream_1 = frames
        .iter()
        .any(|f| matches!(f, Frame::Headers(h) if h.stream_id.value() == 1));
    settings && response_on_stream_1
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn report_for(profile: ServerProfile) -> NegotiationReport {
        probe(&Target::testbed(profile, SiteSpec::benchmark()))
    }

    #[test]
    fn npn_only_server_detected() {
        let report = report_for(ServerProfile::ideaweb());
        assert!(!report.alpn_h2);
        assert!(report.npn_h2);
        assert!(report.h2());
    }

    #[test]
    fn h2c_upgrade_works_on_supporting_servers() {
        for profile in [
            ServerProfile::h2o(),
            ServerProfile::nghttpd(),
            ServerProfile::apache(),
        ] {
            let name = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            assert!(h2c_upgrade(&target), "{name} should accept Upgrade: h2c");
        }
    }

    #[test]
    fn h2c_upgrade_declined_by_tls_only_servers() {
        for profile in [ServerProfile::nginx(), ServerProfile::litespeed()] {
            let name = profile.name.clone();
            let target = Target::testbed(profile, SiteSpec::benchmark());
            assert!(!h2c_upgrade(&target), "{name} has no h2c path");
        }
    }

    /// What a cleartext server answers to an `Upgrade: h2c` request.
    fn upgrade_answer(profile: ServerProfile) -> Vec<u8> {
        use h2server::H2Server;
        use netsim::Pipe;
        let target = Target::testbed(profile, SiteSpec::benchmark());
        let server = H2Server::new_cleartext(target.profile.clone(), target.site.clone());
        let mut pipe = Pipe::connect(server, target.link, 1);
        pipe.client_send(b"GET / HTTP/1.1\r\nHost: x\r\nUpgrade: h2c\r\n\r\n");
        let arrivals = pipe.run_to_quiescence();
        arrivals.into_iter().flat_map(|a| a.bytes).collect()
    }

    /// Every line of an HTTP/1.1 head ends in CRLF (RFC 7230 §3).
    fn has_no_bare_lf(head: &[u8]) -> bool {
        (0..head.len()).all(|i| head[i] != b'\n' || (i > 0 && head[i - 1] == b'\r'))
    }

    #[test]
    fn switching_protocols_head_is_crlf_terminated() {
        let head = upgrade_answer(ServerProfile::h2o());
        assert!(head.starts_with(b"HTTP/1.1 101 Switching Protocols\r\n"));
        assert!(head.ends_with(b"Upgrade: h2c\r\n\r\n"), "RFC 7540 §3.2");
        assert!(has_no_bare_lf(&head));
    }

    #[test]
    fn declined_upgrade_still_gets_an_http1_response() {
        let text = upgrade_answer(ServerProfile::nginx());
        assert!(
            text.starts_with(b"HTTP/1.1 200 OK\r\n"),
            "plain HTTP/1.1 service"
        );
        let head_end = text.windows(4).position(|w| w == b"\r\n\r\n");
        let head_end = head_end.expect("head ends in an empty line") + 4;
        assert!(has_no_bare_lf(&text[..head_end]));
    }

    #[test]
    fn prior_knowledge_preface_works_on_cleartext_port() {
        use h2server::H2Server;
        use h2wire::{Frame, FrameDecoder, SettingsFrame, CONNECTION_PREFACE};
        use netsim::Pipe;
        let target = Target::testbed(ServerProfile::nghttpd(), SiteSpec::benchmark());
        let server = H2Server::new_cleartext(target.profile.clone(), target.site.clone());
        let mut pipe = Pipe::connect(server, target.link, 2);
        let mut hello = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(h2wire::Settings::new())).encode(&mut hello);
        pipe.client_send(&hello);
        let arrivals = pipe.run_to_quiescence();
        let mut decoder = FrameDecoder::new();
        for arrival in arrivals {
            decoder.feed(&arrival.bytes);
        }
        let frames = decoder.drain_frames().unwrap();
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::Settings(s) if !s.ack)));
    }
}
