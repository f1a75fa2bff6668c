//! What a survey *should* report: the one statement of how a server's
//! [`ServerBehavior`] shows through H2Scope's probes.
//!
//! [`expected`] reads only the behavior and the site it serves — never
//! the engine, never a probe — so it is an independent prediction, not
//! a restatement of the code it checks. [`Verdicts::of`] projects a
//! measured [`SiteReport`] onto the same fields; a test that asserts the
//! two equal checks the whole probe pipeline against the quirk matrix.
//! The paper's Table III cells are this prediction for the six testbed
//! profiles.

use h2server::behavior::PriorityMode;
use h2server::{HeadersFlowControl, QuirkAction, ServerBehavior, SiteSpec};
use h2wire::SettingId;
use netsim::tls::{PROTO_H2, PROTO_HTTP11};

use crate::probes::flow_control::SmallWindowOutcome;
use crate::probes::settings::SettingsReport;
use crate::probes::Reaction;
use crate::report::SiteReport;

/// How a quirk action shows on the wire when a violation is scoped to a
/// stream (`on_stream`) or to the connection. A reset at connection scope
/// degrades to GOAWAY (there is no stream to reset), and a GOAWAY that
/// carries `debug` text is [`Reaction::GoawayWithDebug`].
pub fn reaction(action: QuirkAction, on_stream: bool, debug: bool) -> Reaction {
    match (action, on_stream) {
        (QuirkAction::Ignore, _) => Reaction::Ignored,
        (QuirkAction::RstStream, true) => Reaction::RstStream,
        (QuirkAction::RstStream, false) | (QuirkAction::Goaway, _) => {
            if debug {
                Reaction::GoawayWithDebug
            } else {
                Reaction::Goaway
            }
        }
    }
}

/// Every [`SiteReport`] verdict a server's behavior determines, flat.
///
/// The follow-up verdicts are `None` exactly when the survey does not
/// run their probes (no HTTP/2, or no HEADERS came back). Left out, as
/// no behavior determines them: the HPACK ratio's value (it depends on
/// the header bytes, only its `< 1` side is a behavior), the push
/// probe's promised paths and octets (site content), and the resilience
/// accounting in [`SiteReport::probe`] (the network's doing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    /// h2 selected via ALPN.
    pub alpn_h2: bool,
    /// h2 selected via NPN.
    pub npn_h2: bool,
    /// A HEADERS frame came back for the front page.
    pub headers_received: bool,
    /// The `server` response header.
    pub server_name: Option<String>,
    /// The announced SETTINGS, as the settings probe reads them.
    pub settings: SettingsReport,
    /// §III-B1: the first DATA under a 1-octet window.
    pub small_window: Option<SmallWindowOutcome>,
    /// §III-B2: HEADERS arrive under a zero window.
    pub headers_at_zero_window: Option<bool>,
    /// §III-B3: zero WINDOW_UPDATE on a stream.
    pub zero_update_stream: Option<Reaction>,
    /// §III-B3: zero WINDOW_UPDATE on the connection.
    pub zero_update_conn: Option<Reaction>,
    /// §III-B4: stream window overflow.
    pub large_update_stream: Option<Reaction>,
    /// §III-B4: connection window overflow.
    pub large_update_conn: Option<Reaction>,
    /// Algorithm 1, judged by each stream's last DATA frame.
    pub by_last_frame: Option<bool>,
    /// Algorithm 1, judged by each stream's first DATA frame.
    pub by_first_frame: Option<bool>,
    /// HEADERS withheld while the connection window was zero.
    pub headers_blocked_at_zero_conn_window: Option<bool>,
    /// §III-C2: a self-dependent PRIORITY frame.
    pub self_dependency: Option<Reaction>,
    /// At least one PUSH_PROMISE for the front page.
    pub push: Option<bool>,
    /// Repeated response header blocks shrink (HPACK ratio below 1).
    pub hpack_indexes_responses: Option<bool>,
}

impl Verdicts {
    /// The verdicts a survey measured.
    pub fn of(report: &SiteReport) -> Verdicts {
        let fc = report.flow_control.as_ref();
        let priority = report.priority.as_ref();
        Verdicts {
            alpn_h2: report.negotiation.alpn_h2,
            npn_h2: report.negotiation.npn_h2,
            headers_received: report.headers_received,
            server_name: report.server_name.clone(),
            settings: report.settings,
            small_window: fc.map(|fc| fc.small_window),
            headers_at_zero_window: fc.map(|fc| fc.headers_at_zero_window),
            zero_update_stream: fc.map(|fc| fc.zero_update_stream),
            zero_update_conn: fc.map(|fc| fc.zero_update_conn),
            large_update_stream: fc.map(|fc| fc.large_update_stream),
            large_update_conn: fc.map(|fc| fc.large_update_conn),
            by_last_frame: priority.map(|p| p.by_last_frame),
            by_first_frame: priority.map(|p| p.by_first_frame),
            headers_blocked_at_zero_conn_window: priority
                .map(|p| p.headers_blocked_at_zero_conn_window),
            self_dependency: priority.map(|p| p.self_dependency),
            push: report.push.as_ref().map(|p| p.supported()),
            hpack_indexes_responses: report.hpack.as_ref().map(|h| h.ratio() < 1.0),
        }
    }
}

/// The verdicts a survey of a server behaving as `b`, serving `site`,
/// reports over a healthy link.
pub fn expected(b: &ServerBehavior, site: &SiteSpec) -> Verdicts {
    // ALPN: the server picks the first of its own protocols that H2Scope
    // offers. NPN: H2Scope picks h2 whenever the server lists it.
    let alpn_h2 = b.tls.alpn.as_ref().is_some_and(|protocols| {
        protocols
            .iter()
            .find(|p| *p == PROTO_H2 || *p == PROTO_HTTP11)
            .is_some_and(|p| p == PROTO_H2)
    });
    let npn_h2 = b
        .tls
        .npn
        .as_ref()
        .is_some_and(|protocols| protocols.iter().any(|p| p == PROTO_H2));
    let h2 = alpn_h2 || npn_h2;
    let headers_received = h2 && !b.mute;
    let announced = |id| b.announced.get(id);
    let settings = if h2 {
        SettingsReport {
            header_table_size: announced(SettingId::HeaderTableSize),
            enable_push: announced(SettingId::EnablePush),
            max_concurrent_streams: announced(SettingId::MaxConcurrentStreams),
            initial_window_size: announced(SettingId::InitialWindowSize),
            max_frame_size: announced(SettingId::MaxFrameSize),
            max_header_list_size: announced(SettingId::MaxHeaderListSize),
            received: true,
        }
    } else {
        SettingsReport::default()
    };
    let probed = headers_received;
    let debug = b.zero_window_debug;
    let (by_last_frame, by_first_frame) = match b.priority_mode {
        // Algorithm 1 asks for its six streams (Table I's A–F) at once: a
        // server that admits fewer refuses the rest, and with streams
        // missing neither ordering rule can hold.
        _ if b.max_concurrent_streams().is_some_and(|n| n < 6) => (false, false),
        PriorityMode::Strict => (true, true),
        PriorityMode::CompletionOrder => (true, false),
        PriorityMode::FirstFrameOnly => (false, true),
        PriorityMode::None => (false, false),
    };
    Verdicts {
        alpn_h2,
        npn_h2,
        headers_received,
        server_name: probed.then_some(b.server_name.clone()),
        settings,
        small_window: probed.then_some(small_window(b)),
        headers_at_zero_window: probed.then_some(b.headers_flow_control == HeadersFlowControl::Off),
        zero_update_stream: probed.then_some(reaction(b.zero_window_update_stream, true, debug)),
        zero_update_conn: probed.then_some(reaction(b.zero_window_update_conn, false, debug)),
        large_update_stream: probed.then_some(reaction(b.large_window_update_stream, true, false)),
        large_update_conn: probed.then_some(reaction(b.large_window_update_conn, false, false)),
        by_last_frame: probed.then_some(by_last_frame),
        by_first_frame: probed.then_some(by_first_frame),
        // Algorithm 1 drains the connection window before it asks: a
        // server that flow-controls HEADERS then holds them back.
        headers_blocked_at_zero_conn_window: probed
            .then_some(b.headers_flow_control == HeadersFlowControl::Full),
        self_dependency: probed.then_some(reaction(b.self_dependency, true, false)),
        push: probed.then_some(b.push && pushes_on_front_page(b, site)),
        hpack_indexes_responses: probed.then_some(b.hpack_index_responses),
    }
}

/// §III-B1 under a 1-octet window: a server that flow-controls HEADERS
/// sends nothing (the header block does not fit); the zero-length-DATA
/// quirk answers with an empty DATA frame; everyone else sends exactly
/// one octet.
fn small_window(b: &ServerBehavior) -> SmallWindowOutcome {
    if b.headers_flow_control == HeadersFlowControl::Full {
        SmallWindowOutcome::NoResponse
    } else if b.zero_len_data_when_blocked {
        SmallWindowOutcome::ZeroLenData
    } else {
        SmallWindowOutcome::OneByteData
    }
}

/// The site holds at least one resource the push policy promises along
/// with the front page.
fn pushes_on_front_page(b: &ServerBehavior, site: &SiteSpec) -> bool {
    site.push_set("/", b.push_policy)
        .iter()
        .any(|path| site.resource(path).is_some())
}
