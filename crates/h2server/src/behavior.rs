//! The server behavior quirk matrix.
//!
//! Every row of the paper's Table III that distinguishes real servers is a
//! field here. A profile (see [`crate::profiles`]) is just a filled-in
//! matrix; the engine consults it at each policy decision point. This is
//! the core modeling idea of the reproduction: RFC 7540 fixes the
//! *mechanics* (implemented in `h2conn`) but leaves the *reactions* to
//! violations open, and the paper's finding is precisely that deployed
//! servers chose different reactions.

use h2fault::ByzantineSpec;
use h2wire::settings::{DEFAULT_INITIAL_WINDOW_SIZE, DEFAULT_MAX_FRAME_SIZE};
use h2wire::{SettingId, Settings};
use netsim::time::SimDuration;
use netsim::TlsConfig;

/// How a server reacts to a protocol condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuirkAction {
    /// Silently ignore the offending frame (Nginx/Tengine on zero window
    /// updates).
    Ignore,
    /// Reset the affected stream.
    RstStream,
    /// Tear down the whole connection.
    Goaway,
}

/// The GOAWAY debug text of a server whose
/// [`ServerBehavior::zero_window_debug`] is set.
pub const ZERO_WINDOW_DEBUG: &str = "the window update shouldn't be zero";

/// Whether response HEADERS wait for flow-control window. RFC 7540 §6.9
/// flow-controls only DATA; the paper found servers that gate HEADERS
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadersFlowControl {
    /// HEADERS go out whatever the windows (RFC 7540).
    Off,
    /// A weaker variant seen in the wild (§V-D2): HEADERS are withheld
    /// only while the stream window is exactly zero. Such sites answer
    /// the 1-octet-window probe normally but fail the zero-initial-window
    /// compliance test — the reason the paper's two flow-control tests
    /// disagree on counts.
    AtZeroWindow,
    /// The LiteSpeed deviation (Table III row 5): response HEADERS are
    /// withheld until both the stream and the connection window can
    /// cover the header block.
    Full,
}

/// How (and whether) the server's DATA scheduler honors the priority
/// tree.
///
/// The paper's wild scan (§V-E) found that sites fall into *four* groups,
/// not two: 1,147/2,187 sites order stream *completion* by priority,
/// only 46/117 order the *first* DATA frames, and just 38/111 do both —
/// so the reproduction needs the partial modes, not a boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityMode {
    /// Ignore priorities entirely; serve ready streams round-robin.
    None,
    /// Strict tree scheduling: a ready stream is always served before its
    /// descendants (passes both of H2Scope's ordering rules). This is
    /// what H2O, nghttpd and Apache do in the testbed.
    Strict,
    /// Each response's first chunk goes out in FCFS order (e.g. an
    /// eagerly-flushing front buffer), after which scheduling is strict —
    /// completion order follows priority but first-frame order does not.
    CompletionOrder,
    /// The first chunks are priority-ordered but the remainder is served
    /// round-robin — first-frame order follows priority, completion does
    /// not.
    FirstFrameOnly,
}

/// Which subset of a page's object tree a push-capable server promises —
/// the experimental axis of the push QoE study. RFC 7540 §8.2 leaves
/// the *choice* of what to push entirely to the server, and deployed
/// policies range from nothing through the page's direct references to
/// speculatively pushing whole sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushPolicy {
    /// Promise nothing even when push is negotiated.
    None,
    /// Promise the page's direct children (the declared dependency
    /// set) — the conventional "push what the HTML references" policy.
    All,
    /// Promise only render-blocking resources (CSS and JavaScript)
    /// along the critical request chain, transitively.
    CriticalPath,
    /// Promise every resource the site serves, needed by this page or
    /// not — the speculative over-push that wastes downstream
    /// bandwidth on objects the client never asked for.
    OverPush,
}

impl PushPolicy {
    /// Every policy, in sweep order.
    pub const ALL_POLICIES: [PushPolicy; 4] = [
        PushPolicy::None,
        PushPolicy::All,
        PushPolicy::CriticalPath,
        PushPolicy::OverPush,
    ];

    /// Stable CLI / artifact name.
    pub fn name(self) -> &'static str {
        match self {
            PushPolicy::None => "push-none",
            PushPolicy::All => "push-all",
            PushPolicy::CriticalPath => "push-critical-path",
            PushPolicy::OverPush => "over-push",
        }
    }
}

/// The full behavior matrix for one server implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerBehavior {
    /// `Server:` response header value, e.g. `"nginx/1.9.15"`.
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub server_name: String,
    /// TLS negotiation support (ALPN and/or NPN lists).
    ///
    /// Rule: RFC 7540 §3.3 (h2 is negotiated via ALPN over TLS).
    pub tls: TlsConfig,
    /// Whether response HEADERS wait for flow-control window (see
    /// [`HeadersFlowControl`]).
    ///
    /// Deviates from RFC 7540 §6.9 (only DATA is flow-controlled) unless
    /// [`HeadersFlowControl::Off`].
    pub headers_flow_control: HeadersFlowControl,
    /// Negotiates h2 but never answers requests — the gap between the
    /// paper's negotiation counts (49,334 NPN / 47,966 ALPN sites) and its
    /// HEADERS-returning count (44,390).
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub mute: bool,
    /// Site-specific response headers appended to every response (drives
    /// natural dispersion in the HPACK ratio CDFs of Figures 4/5).
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub extra_response_headers: Vec<(String, String)>,
    /// Reaction to a zero-increment WINDOW_UPDATE on a stream
    /// (RFC says RST_STREAM).
    ///
    /// Rule: RFC 7540 §6.9 (a zero increment is PROTOCOL_ERROR).
    pub zero_window_update_stream: QuirkAction,
    /// Reaction to a zero-increment WINDOW_UPDATE on the connection
    /// (RFC says GOAWAY).
    ///
    /// Rule: RFC 7540 §6.9 (a zero increment is PROTOCOL_ERROR).
    pub zero_window_update_conn: QuirkAction,
    /// A GOAWAY sent for a zero window update carries
    /// [`ZERO_WINDOW_DEBUG`] as debug text (a few dozen sites in the
    /// paper sent that message).
    ///
    /// Rule: RFC 7540 §6.8 (GOAWAY may carry opaque debug data).
    pub zero_window_debug: bool,
    /// Reaction to a stream window exceeding 2^31-1 (RFC says RST_STREAM).
    ///
    /// Rule: RFC 7540 §6.9.1 (a window above 2^31-1 is FLOW_CONTROL_ERROR).
    pub large_window_update_stream: QuirkAction,
    /// Reaction to the connection window exceeding 2^31-1 (RFC says
    /// GOAWAY).
    ///
    /// Rule: RFC 7540 §6.9.1 (a window above 2^31-1 is FLOW_CONTROL_ERROR).
    pub large_window_update_conn: QuirkAction,
    /// Server push implemented.
    ///
    /// Rule: RFC 7540 §8.2 (server push).
    pub push: bool,
    /// What a push-capable server promises per page (meaningless while
    /// [`ServerBehavior::push`] is `false`).
    ///
    /// Rule: RFC 7540 §8.2 (what to push is the server's choice).
    pub push_policy: PushPolicy,
    /// Scheduling discipline with respect to the priority tree.
    ///
    /// Rule: RFC 7540 §5.3 (parent before children, siblings by weight).
    pub priority_mode: PriorityMode,
    /// Reaction to a self-dependent stream (RFC says RST_STREAM; H2O,
    /// nghttpd and Apache send GOAWAY; LiteSpeed ignores).
    ///
    /// Rule: RFC 7540 §5.3.1 (a stream cannot depend on itself).
    pub self_dependency: QuirkAction,
    /// Inserts *response* header fields into the HPACK dynamic table.
    /// `false` models Nginx/Tengine, whose repeated response header
    /// blocks never shrink (compression ratio 1 in Figures 4/5).
    ///
    /// Rule: RFC 7540 §4.3 (the HPACK context spans the connection).
    pub hpack_index_responses: bool,
    /// The SETTINGS parameters announced at connection start. A server
    /// that announces `INITIAL_WINDOW_SIZE = 0` follows the SETTINGS with
    /// `WINDOW_UPDATE(connection, 65,535)` — the Nginx pattern behind the
    /// 3,072 / 7,499 zero entries in Table V.
    ///
    /// Rule: RFC 7540 §6.5.2 (SETTINGS values within their bounds) and
    /// §6.9.2 (SETTINGS_INITIAL_WINDOW_SIZE retunes stream windows).
    pub announced: Settings,
    /// Sends zero-length DATA frames when flow-control-blocked instead of
    /// staying silent (a small population in §V-D1 did this).
    ///
    /// Rule: RFC 7540 §6.9.1 (a sender stays within the advertised window).
    pub zero_len_data_when_blocked: bool,
    /// Adds a fresh `set-cookie` to every response, which makes the HPACK
    /// ratio exceed 1 (the paper filters r > 1; we must generate them to
    /// exercise that filter).
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub cookie_injection: bool,
    /// Per-request application processing time (drives the HTTP/1.1 RTT
    /// estimator gap in Figure 6; PING replies skip it).
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub processing_delay: SimDuration,
    /// Injected byzantine misbehavior (fault campaigns only; `None` for
    /// every testbed profile). See [`h2fault::ByzantineSpec`].
    ///
    /// Modeling: no RFC 7540 rule involved.
    pub byzantine: Option<ByzantineSpec>,
    // ----- abuse-hardening quirks (robustness matrix, §VI) --------------
    //
    // RFC 7540 §10.5 only *permits* an endpoint to treat excessive
    // resource demand as ENHANCE_YOUR_CALM; it mandates nothing. Whether
    // a server bounds RST churn, CONTINUATION growth, SETTINGS floods or
    // stalled windows is therefore an implementation quirk exactly like
    // the Table III reactions — and the robustness probes re-measure it.
    /// Client RST_STREAM budget per connection: once exceeded the server
    /// sends GOAWAY(ENHANCE_YOUR_CALM). `None` = unbounded churn allowed
    /// (the rapid-reset exposure).
    ///
    /// Rule: RFC 7540 §10.5 (an endpoint may police RST_STREAM churn).
    pub rst_rate_limit: Option<u32>,
    /// Non-ack SETTINGS budget per connection, each of which costs the
    /// server an ack. `None` = unbounded (the SETTINGS-flood exposure).
    ///
    /// Rule: RFC 7540 §10.5 (an endpoint may police SETTINGS floods).
    pub settings_rate_limit: Option<u32>,
    /// Cap on the octets buffered for one in-progress header block across
    /// HEADERS + CONTINUATION fragments; exceeding it tears the
    /// connection down. `None` = unbounded assembly (the
    /// CONTINUATION-flood exposure; §4.3 never bounds a block).
    ///
    /// Rule: RFC 7540 §10.5 (an endpoint may cap an unbounded header block).
    pub continuation_cap: Option<u32>,
    /// How long a response may sit flow-control-blocked (or a request
    /// body may trickle) before the server gives up on the connection
    /// with GOAWAY(ENHANCE_YOUR_CALM). `None` = waits forever (the
    /// slow-read / slow-POST exposure).
    ///
    /// Rule: RFC 7540 §10.5 (an endpoint may reap stalled connections).
    pub stall_timeout: Option<SimDuration>,
    /// Bound on a received request header list, measured as RFC 7540
    /// §6.5.2 defines `SETTINGS_MAX_HEADER_LIST_SIZE` (name + value + 32
    /// per field), and the reaction when a list exceeds it (§10.5.1
    /// leaves the choice open: stream error or connection error).
    /// Enforced internally rather than announced, matching the advisory
    /// nature of the setting. `None` = unbounded.
    ///
    /// Rule: RFC 7540 §10.5.1 (a header list above the limit should be a
    /// stream error).
    pub header_list_limit: Option<(u32, QuirkAction)>,
}

impl ServerBehavior {
    /// The RFC 7540 reference behavior — the last column of Table III.
    pub fn rfc7540() -> ServerBehavior {
        ServerBehavior {
            server_name: "rfc7540-reference".into(),
            tls: TlsConfig::h2_full(),
            headers_flow_control: HeadersFlowControl::Off,
            mute: false,
            extra_response_headers: Vec::new(),
            zero_window_update_stream: QuirkAction::RstStream,
            zero_window_update_conn: QuirkAction::Goaway,
            zero_window_debug: false,
            large_window_update_stream: QuirkAction::RstStream,
            large_window_update_conn: QuirkAction::Goaway,
            push: true,
            push_policy: PushPolicy::All,
            priority_mode: PriorityMode::Strict,
            self_dependency: QuirkAction::RstStream,
            hpack_index_responses: true,
            announced: Settings::new()
                .with(SettingId::MaxConcurrentStreams, 100)
                .with(SettingId::InitialWindowSize, DEFAULT_INITIAL_WINDOW_SIZE)
                .with(SettingId::MaxFrameSize, DEFAULT_MAX_FRAME_SIZE),
            zero_len_data_when_blocked: false,
            cookie_injection: false,
            processing_delay: SimDuration::from_micros(500),
            byzantine: None,
            // The reference endpoint implements RFC 7540 and nothing
            // more: the spec requires none of the abuse bounds, so the
            // reference has none — itself a row of the robustness matrix.
            rst_rate_limit: None,
            settings_rate_limit: None,
            continuation_cap: None,
            stall_timeout: None,
            header_list_limit: None,
        }
    }

    /// The announced value of a SETTINGS parameter, if present.
    pub fn announced_value(&self, id: SettingId) -> Option<u32> {
        self.announced.get(id)
    }

    /// Announced `SETTINGS_MAX_CONCURRENT_STREAMS` (None = unlimited).
    pub fn max_concurrent_streams(&self) -> Option<u32> {
        self.announced_value(SettingId::MaxConcurrentStreams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_reference_has_no_abuse_hardening() {
        // RFC 7540 mandates none of the abuse bounds (§10.5 is entirely
        // permissive), so the reference column of the robustness matrix
        // is all "no" — the finding that conformance alone does not
        // imply robustness.
        let b = ServerBehavior::rfc7540();
        assert_eq!(b.rst_rate_limit, None);
        assert_eq!(b.settings_rate_limit, None);
        assert_eq!(b.continuation_cap, None);
        assert_eq!(b.stall_timeout, None);
        assert_eq!(b.header_list_limit, None);
    }

    #[test]
    fn announced_values_are_queryable() {
        let b = ServerBehavior::rfc7540();
        assert_eq!(b.max_concurrent_streams(), Some(100));
        assert_eq!(b.announced_value(SettingId::HeaderTableSize), None);
    }
}
