//! ALPN/NPN negotiation probe (§IV-A): does the site speak HTTP/2, and
//! through which TLS extension? The paper's scan, and this one, reach
//! HTTP/2 only over TLS; the cleartext `Upgrade: h2c` path is not probed.

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
}
