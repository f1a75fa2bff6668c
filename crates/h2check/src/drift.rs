//! Cross-validation of the [`crate::spec`] tables against the
//! implementations.
//!
//! Each check produces one summary line (`x/y match ...`) plus a
//! `drift` finding per mismatch. The checks run real code: the §5.1
//! table drives an actual `h2conn::Stream`, the §6 table decodes real
//! frames through `h2wire`, and the quirk/classifier check runs the
//! actual simulated probes against every `ServerProfile` and compares
//! the observed reaction with what the quirk matrix predicts.

#![allow(
    clippy::indexing_slicing,
    reason = "token indices come from enumerate/loop bounds over `sf.tokens`; `in_test` has the same length by construction"
)]

pub mod hpack;

use std::path::Path;
use std::sync::Arc;

use h2conn::{Stream, StreamState};
use h2scope::probes::{self, Reaction};
use h2scope::target::Target;
use h2server::{QuirkAction, ServerProfile, SiteSpec};
use h2wire::{
    DecodeFrameError, ErrorCode, Frame, FrameHeader, FrameKind, SettingId, Settings, StreamId,
};

use crate::lexer::{lex, SourceFile};
use crate::report::{Finding, Report};
use crate::spec::{
    RecvOutcome, SpecEvent, SpecState, StreamIdRule, CAPABILITIES, FRAME_RULES, PROBE_RULES,
    QUIRK_RULES, RECV_LEGALITY, SETTING_BOUNDS, TRANSITIONS,
};

fn drift(file: &str, line: usize, message: String) -> Finding {
    Finding {
        kind: "drift",
        file: file.to_string(),
        line,
        message,
    }
}

/// Runs every cross-validation check, appending summary lines and any
/// mismatch findings to `report`. `root` is the repository root (for
/// the registry checks, which scan source files).
pub fn run_all(root: &Path, report: &mut Report) {
    check_transitions(report);
    check_capabilities(report);
    check_recv_legality(report);
    check_frame_rules(report);
    check_error_taxonomy(report);
    check_setting_bounds(report);
    check_quirk_registry(root, report);
    check_probe_registry(root, report);
    check_dynamic_quirks(report);
    hpack::run(report);
}

// ---------------------------------------------------------------------------
// §5.1 vs h2conn
// ---------------------------------------------------------------------------

fn to_impl(state: SpecState) -> StreamState {
    match state {
        SpecState::Idle => StreamState::Idle,
        SpecState::ReservedLocal => StreamState::ReservedLocal,
        SpecState::ReservedRemote => StreamState::ReservedRemote,
        SpecState::Open => StreamState::Open,
        SpecState::HalfClosedLocal => StreamState::HalfClosedLocal,
        SpecState::HalfClosedRemote => StreamState::HalfClosedRemote,
        SpecState::Closed => StreamState::Closed,
    }
}

fn apply_event(stream: &mut Stream, event: SpecEvent) {
    match event {
        SpecEvent::SendHeaders { end_stream } => stream.send_headers(end_stream),
        SpecEvent::RecvHeaders { end_stream } => stream.recv_headers(end_stream),
        SpecEvent::SendEndStream => stream.send_end_stream(),
        SpecEvent::RecvEndStream => stream.recv_end_stream(),
        SpecEvent::SendReset => stream.send_reset(ErrorCode::Cancel),
        SpecEvent::RecvReset => stream.recv_reset(ErrorCode::Cancel),
    }
}

fn check_transitions(report: &mut Report) {
    const FILE: &str = "crates/h2conn/src/stream.rs";
    let mut ok = 0;
    for tr in &TRANSITIONS {
        let mut stream = Stream::new(StreamId::new(1), 65_535, 65_535);
        stream.state = to_impl(tr.from);
        apply_event(&mut stream, tr.event);
        if stream.state == to_impl(tr.to) {
            ok += 1;
        } else {
            report.findings.push(drift(
                FILE,
                1,
                format!(
                    "§5.1 table says {:?} --{:?}--> {:?}, h2conn::Stream went to {:?}",
                    tr.from, tr.event, tr.to, stream.state
                ),
            ));
        }
    }
    report.drift.push(format!(
        "§5.1 transitions: {ok}/{} match h2conn::Stream",
        TRANSITIONS.len()
    ));
}

fn check_capabilities(report: &mut Report) {
    const FILE: &str = "crates/h2conn/src/stream.rs";
    let mut ok = 0;
    for caps in &CAPABILITIES {
        let state = to_impl(caps.state);
        // `can_send`/`can_recv` also admit the reserved state about to
        // transition into the sending/receiving role.
        let want_send = caps.may_send_data || caps.state == SpecState::ReservedLocal;
        let want_recv = caps.may_recv_data || caps.state == SpecState::ReservedRemote;
        if state.can_send() == want_send && state.can_recv() == want_recv {
            ok += 1;
        } else {
            report.findings.push(drift(
                FILE,
                1,
                format!(
                    "{:?}: capability table wants send={want_send}/recv={want_recv}, \
                     h2conn reports send={}/recv={}",
                    caps.state,
                    state.can_send(),
                    state.can_recv()
                ),
            ));
        }
    }
    report.drift.push(format!(
        "§5.1 capabilities: {ok}/{} states match can_send/can_recv",
        CAPABILITIES.len()
    ));
}

fn check_recv_legality(report: &mut Report) {
    const FILE: &str = "crates/h2check/src/spec.rs";
    let mut ok = 0;
    for caps in &CAPABILITIES {
        let cell = RECV_LEGALITY
            .iter()
            .find(|r| r.state == caps.state && r.frame == FrameKind::Data);
        match cell {
            Some(cell) if (cell.outcome == RecvOutcome::Legal) == caps.may_recv_data => ok += 1,
            Some(cell) => report.findings.push(drift(
                FILE,
                1,
                format!(
                    "{:?}: DATA legality {:?} contradicts may_recv_data={}",
                    caps.state, cell.outcome, caps.may_recv_data
                ),
            )),
            None => report.findings.push(drift(
                FILE,
                1,
                format!("{:?}: no DATA cell in RECV_LEGALITY", caps.state),
            )),
        }
    }
    report.drift.push(format!(
        "§5.1 receive legality: {ok}/{} states consistent with DATA capabilities",
        CAPABILITIES.len()
    ));
}

// ---------------------------------------------------------------------------
// §6 vs the h2wire decoder
// ---------------------------------------------------------------------------

fn min_valid_payload(kind: FrameKind) -> Vec<u8> {
    match kind {
        FrameKind::Priority => vec![0, 0, 0, 0, 15],
        FrameKind::RstStream => vec![0, 0, 0, 8],
        FrameKind::PushPromise => vec![0, 0, 0, 2],
        FrameKind::Ping | FrameKind::Goaway => vec![0; 8],
        FrameKind::WindowUpdate => vec![0, 0, 0, 1],
        _ => Vec::new(),
    }
}

fn decode(
    kind: FrameKind,
    flags: u8,
    stream_id: StreamId,
    payload: &[u8],
) -> Result<Frame, DecodeFrameError> {
    let header = FrameHeader {
        length: payload.len() as u32,
        kind,
        flags,
        stream_id,
    };
    Frame::decode(header, payload)
}

fn check_frame_rules(report: &mut Report) {
    const FILE: &str = "crates/h2wire/src/frame.rs";
    let mut ok = 0;
    for rule in &FRAME_RULES {
        let mut rule_ok = true;
        let fail = |report: &mut Report, msg: String| {
            report.findings.push(drift(
                FILE,
                1,
                format!("§{} {:?}: {msg}", rule.section, rule.kind),
            ));
        };
        let payload = min_valid_payload(rule.kind);
        let good_id = match rule.stream_id {
            StreamIdRule::Zero => StreamId::CONNECTION,
            StreamIdRule::NonZero | StreamIdRule::Any => StreamId::new(1),
        };
        // 1. The minimal conforming frame must decode.
        if let Err(e) = decode(rule.kind, 0, good_id, &payload) {
            rule_ok = false;
            fail(report, format!("minimal valid frame rejected: {e:?}"));
        }
        // 2. Undefined flag bits must be ignored, not rejected (§4.1).
        if let Err(e) = decode(rule.kind, !rule.allowed_flags, good_id, &payload) {
            rule_ok = false;
            fail(
                report,
                format!("undefined flags rejected instead of ignored: {e:?}"),
            );
        }
        // 3. The stream-id constraint must be enforced with PROTOCOL_ERROR.
        let bad_id = match rule.stream_id {
            StreamIdRule::Zero => Some(StreamId::new(1)),
            StreamIdRule::NonZero => Some(StreamId::CONNECTION),
            StreamIdRule::Any => None,
        };
        if let Some(bad_id) = bad_id {
            match decode(rule.kind, 0, bad_id, &payload) {
                Err(e) if e.h2_error_code() == ErrorCode::ProtocolError => {}
                Err(e) => {
                    rule_ok = false;
                    fail(
                        report,
                        format!(
                            "stream-id violation maps to {:?}, not PROTOCOL_ERROR",
                            e.h2_error_code()
                        ),
                    );
                }
                Ok(_) => {
                    rule_ok = false;
                    fail(report, "stream-id violation accepted".to_string());
                }
            }
        } else {
            // WINDOW_UPDATE: both scopes must decode.
            if decode(rule.kind, 0, StreamId::CONNECTION, &payload).is_err() {
                rule_ok = false;
                fail(report, "connection-scope frame rejected".to_string());
            }
        }
        // 4. Size violations must be FRAME_SIZE_ERROR (§4.2).
        let bad_payloads: Vec<Vec<u8>> = match (rule.fixed_len, rule.min_len, rule.len_multiple_of)
        {
            (Some(n), _, _) => vec![vec![0; n + 1], vec![0; n.saturating_sub(1)]],
            (_, Some(n), _) => vec![vec![0; n - 1]],
            (_, _, Some(n)) => vec![vec![0; n - 1]],
            _ => Vec::new(),
        };
        for bad in bad_payloads {
            match decode(rule.kind, 0, good_id, &bad) {
                Err(e) if e.h2_error_code() == ErrorCode::FrameSizeError => {}
                Err(e) => {
                    rule_ok = false;
                    fail(
                        report,
                        format!(
                            "{}-octet payload maps to {:?}, not FRAME_SIZE_ERROR",
                            bad.len(),
                            e.h2_error_code()
                        ),
                    );
                }
                Ok(_) => {
                    rule_ok = false;
                    fail(report, format!("{}-octet payload accepted", bad.len()));
                }
            }
        }
        if rule_ok {
            ok += 1;
        }
    }
    // HEADERS with the PRIORITY flag promises 5 extra octets; shorter is
    // a size error too (§6.2), handled off-table because it is flag-dependent.
    let short = decode(FrameKind::Headers, 0x20, StreamId::new(1), &[0, 0, 0]);
    let headers_priority_ok =
        matches!(&short, Err(e) if e.h2_error_code() == ErrorCode::FrameSizeError);
    if !headers_priority_ok {
        report.findings.push(drift(
            FILE,
            1,
            format!("§6.2 HEADERS+PRIORITY short payload maps to {short:?}, not FRAME_SIZE_ERROR"),
        ));
    }
    report.drift.push(format!(
        "§6 frame rules: {ok}/{} decoder-verified (stream id, size, flag tolerance)",
        FRAME_RULES.len()
    ));
}

fn check_error_taxonomy(report: &mut Report) {
    const FILE: &str = "crates/h2wire/src/error.rs";
    let cases: Vec<(DecodeFrameError, ErrorCode)> = vec![
        (
            DecodeFrameError::FrameTooLarge {
                length: 99_999,
                max: 16_384,
            },
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidLength {
                kind: 0x6,
                length: 7,
            },
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidStreamId {
                kind: 0x4,
                stream_id: 1,
            },
            ErrorCode::ProtocolError,
        ),
        (DecodeFrameError::InvalidPadding, ErrorCode::ProtocolError),
        (
            DecodeFrameError::InvalidWindowIncrement,
            ErrorCode::ProtocolError,
        ),
        (
            DecodeFrameError::SettingsAckWithPayload,
            ErrorCode::FrameSizeError,
        ),
        (
            DecodeFrameError::InvalidSettingValue {
                id: 0x4,
                value: u32::MAX,
            },
            ErrorCode::FlowControlError,
        ),
        (
            DecodeFrameError::InvalidSettingValue { id: 0x2, value: 2 },
            ErrorCode::ProtocolError,
        ),
        (DecodeFrameError::Truncated, ErrorCode::ProtocolError),
    ];
    let total = cases.len();
    let mut ok = 0;
    for (err, want) in cases {
        let got = err.h2_error_code();
        if got == want {
            ok += 1;
        } else {
            report.findings.push(drift(
                FILE,
                1,
                format!("{err:?} maps to {got:?}, spec table wants {want:?}"),
            ));
        }
    }
    report.drift.push(format!(
        "§7 error taxonomy: {ok}/{total} decode errors map to the table's codes"
    ));
}

fn check_setting_bounds(report: &mut Report) {
    const FILE: &str = "crates/h2wire/src/settings.rs";
    fn try_value(
        report: &mut Report,
        counts: &mut (usize, usize),
        id: SettingId,
        value: u64,
        legal: bool,
    ) {
        counts.0 += 1;
        let Ok(v) = u32::try_from(value) else {
            // Out of u32 range, unrepresentable on the wire: nothing to check.
            counts.1 += 1;
            return;
        };
        let accepted = Settings::new().with(id, v).validate().is_ok();
        if accepted == legal {
            counts.1 += 1;
        } else {
            report.findings.push(drift(
                FILE,
                1,
                format!(
                    "§6.5.2 {id:?}={value}: table says {}, validate() says {}",
                    if legal { "legal" } else { "illegal" },
                    if accepted { "legal" } else { "illegal" }
                ),
            ));
        }
    }
    let mut counts = (0usize, 0usize);
    for bound in &SETTING_BOUNDS {
        try_value(report, &mut counts, bound.id, bound.min, true);
        try_value(report, &mut counts, bound.id, bound.max, true);
        try_value(report, &mut counts, bound.id, bound.max + 1, false);
        if bound.min > 0 {
            try_value(report, &mut counts, bound.id, bound.min - 1, false);
        }
    }
    let (probes, ok) = counts;
    let mut profiles_ok = 0;
    let profiles = all_profiles();
    for profile in &profiles {
        if profile.behavior.announced.validate().is_ok() {
            profiles_ok += 1;
        } else {
            report.findings.push(drift(
                "crates/h2server/src/profiles.rs",
                1,
                format!(
                    "{} announces SETTINGS outside the §6.5.2 bounds",
                    profile.name
                ),
            ));
        }
    }
    report.drift.push(format!(
        "§6.5.2 settings bounds: {ok}/{probes} boundary probes, {profiles_ok}/{} profile announcements OK",
        profiles.len()
    ));
}

// ---------------------------------------------------------------------------
// Registries: quirks and probes must cite spec rules
// ---------------------------------------------------------------------------

/// Public field names of a struct named `struct_name` in `sf`, with
/// the line each was declared on.
pub fn struct_pub_fields(sf: &SourceFile, struct_name: &str) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
    for i in 0..sf.tokens.len() {
        if sf.ident_at(i) != Some("struct") || sf.ident_at(i + 1) != Some(struct_name) {
            continue;
        }
        // Find the opening brace (skipping nothing for these structs).
        let mut j = i + 2;
        while j < sf.tokens.len() && !sf.punct_at(j, '{') {
            j += 1;
        }
        let mut depth = 0i32;
        while j < sf.tokens.len() {
            if sf.punct_at(j, '{') {
                depth += 1;
            } else if sf.punct_at(j, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && sf.ident_at(j) == Some("pub") && sf.punct_at(j + 2, ':') {
                if let Some(name) = sf.ident_at(j + 1) {
                    fields.push((name.to_string(), sf.tokens[j + 1].line));
                }
            }
            j += 1;
        }
        break;
    }
    fields
}

/// Cross-checks one file's `ServerBehavior`-shaped struct against
/// [`QUIRK_RULES`], forward direction only (every field must cite a
/// rule). Used both by the workspace run and by `--check-file`.
pub fn check_quirk_fields(
    file: &str,
    sf: &SourceFile,
    findings: &mut Vec<Finding>,
) -> Vec<(String, usize)> {
    let fields = struct_pub_fields(sf, "ServerBehavior");
    for (name, line) in &fields {
        if !QUIRK_RULES.iter().any(|(f, _)| f == name) {
            findings.push(Finding {
                kind: "quirk-registry",
                file: file.to_string(),
                line: *line,
                message: format!(
                    "quirk field `{name}` cites no spec rule; add it to h2check::spec::QUIRK_RULES"
                ),
            });
        }
    }
    fields
}

fn check_quirk_registry(root: &Path, report: &mut Report) {
    const FILE: &str = "crates/h2server/src/behavior.rs";
    let path = root.join(FILE);
    let Ok(src) = std::fs::read_to_string(&path) else {
        report.findings.push(drift(
            FILE,
            1,
            "cannot read behavior.rs for the quirk registry check".to_string(),
        ));
        return;
    };
    let sf = lex(&src);
    let before = report.findings.len();
    let fields = check_quirk_fields(FILE, &sf, &mut report.findings);
    let unmapped = report.findings.len() - before;
    // Reverse direction: a mapping whose field no longer exists is stale.
    let mut stale = 0;
    for (field, _) in QUIRK_RULES {
        if !fields.iter().any(|(name, _)| name == field) {
            stale += 1;
            report.findings.push(drift(
                "crates/h2check/src/spec.rs",
                1,
                format!("QUIRK_RULES maps `{field}`, which is not a ServerBehavior field"),
            ));
        }
    }
    report.drift.push(format!(
        "quirk registry: {}/{} ServerBehavior fields cite a rule ({stale} stale mappings)",
        fields.len() - unmapped,
        fields.len()
    ));
}

/// `module::name` for every `pub fn` in `sf` whose parameter list
/// mentions `Target`.
pub fn probe_fns(module: &str, sf: &SourceFile) -> Vec<(String, usize)> {
    let mut fns = Vec::new();
    for i in 0..sf.tokens.len() {
        if sf.in_test[i] || sf.ident_at(i) != Some("pub") || sf.ident_at(i + 1) != Some("fn") {
            continue;
        }
        let Some(name) = sf.ident_at(i + 2) else {
            continue;
        };
        if !sf.punct_at(i + 3, '(') {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 3;
        let mut takes_target = false;
        while j < sf.tokens.len() {
            if sf.punct_at(j, '(') {
                depth += 1;
            } else if sf.punct_at(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if sf.ident_at(j) == Some("Target") {
                takes_target = true;
            }
            j += 1;
        }
        if takes_target {
            fns.push((format!("{module}::{name}"), sf.tokens[i + 2].line));
        }
    }
    fns
}

fn check_probe_registry(root: &Path, report: &mut Report) {
    let probes_dir = root.join("crates/h2scope/src/probes");
    let mut found: Vec<(String, String, usize)> = Vec::new();
    let mut entries: Vec<_> = match std::fs::read_dir(&probes_dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(_) => {
            report.findings.push(drift(
                "crates/h2scope/src/probes/mod.rs",
                1,
                "cannot read the probes directory for the probe registry check".to_string(),
            ));
            return;
        }
    };
    entries.sort();
    for path in entries {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if stem == "mod" || path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = format!("crates/h2scope/src/probes/{stem}.rs");
        for (name, line) in probe_fns(stem, &lex(&src)) {
            found.push((name, file.clone(), line));
        }
    }
    let mut unmapped = 0;
    for (name, file, line) in &found {
        if !PROBE_RULES.iter().any(|(p, _)| p == name) {
            unmapped += 1;
            report.findings.push(Finding {
                kind: "probe-registry",
                file: file.clone(),
                line: *line,
                message: format!(
                    "probe `{name}` cites no spec rule; add it to h2check::spec::PROBE_RULES"
                ),
            });
        }
    }
    let mut stale = 0;
    for (probe, _) in PROBE_RULES {
        if !found.iter().any(|(name, _, _)| name == probe) {
            stale += 1;
            report.findings.push(drift(
                "crates/h2check/src/spec.rs",
                1,
                format!("PROBE_RULES maps `{probe}`, which is not a public probe"),
            ));
        }
    }
    report.drift.push(format!(
        "probe registry: {}/{} h2scope probes map to spec rules ({stale} stale mappings)",
        found.len() - unmapped,
        found.len()
    ));
}

// ---------------------------------------------------------------------------
// Dynamic: do the probes classify each profile as its matrix predicts?
// ---------------------------------------------------------------------------

fn all_profiles() -> Vec<ServerProfile> {
    let mut profiles = ServerProfile::testbed();
    profiles.push(ServerProfile::rfc7540());
    profiles
}

/// The reaction the quirk matrix predicts for a stream-scoped or
/// connection-scoped violation handled by `action`.
fn predict(action: QuirkAction, on_stream: bool, debug: bool) -> Reaction {
    match (action, on_stream) {
        (QuirkAction::Ignore, _) => Reaction::Ignored,
        (QuirkAction::RstStream, true) => Reaction::RstStream,
        // A "reset" reaction at connection scope degrades to GOAWAY.
        (QuirkAction::RstStream, false) | (QuirkAction::Goaway, _) => {
            if debug {
                Reaction::GoawayWithDebug
            } else {
                Reaction::Goaway
            }
        }
    }
}

/// The reaction the abuse-hardening matrix predicts for a volumetric
/// probe: a configured budget/cap/timeout tears the connection down
/// with an explanatory GOAWAY; no limit means the abuse is absorbed.
fn predict_abuse(limit_configured: bool) -> Reaction {
    if limit_configured {
        Reaction::GoawayWithDebug
    } else {
        Reaction::Ignored
    }
}

fn check_dynamic_quirks(report: &mut Report) {
    const FILE: &str = "crates/h2server/src/profiles.rs";
    let mut total = 0;
    let mut ok = 0;
    let site = Arc::new(SiteSpec::benchmark());
    let push_site = Arc::new(SiteSpec::page_with_assets(3, 2_000));
    for profile in all_profiles() {
        let name = profile.name.clone();
        let b = profile.behavior.clone();
        let profile = Arc::new(profile);
        let target = Target::testbed(profile.clone(), site.clone());
        let push_target = Target::testbed(profile, push_site.clone());
        let debug = b.zero_window_debug.is_some();
        let checks: Vec<(&str, String, String)> = vec![
            (
                "zero_window_update(stream)",
                format!(
                    "{:?}",
                    probes::flow_control::zero_window_update(&target, true)
                ),
                format!("{:?}", predict(b.zero_window_update_stream, true, debug)),
            ),
            (
                "zero_window_update(conn)",
                format!(
                    "{:?}",
                    probes::flow_control::zero_window_update(&target, false)
                ),
                format!("{:?}", predict(b.zero_window_update_conn, false, debug)),
            ),
            (
                "large_window_update(stream)",
                format!(
                    "{:?}",
                    probes::flow_control::large_window_update(&target, true)
                ),
                format!("{:?}", predict(b.large_window_update_stream, true, false)),
            ),
            (
                "large_window_update(conn)",
                format!(
                    "{:?}",
                    probes::flow_control::large_window_update(&target, false)
                ),
                format!("{:?}", predict(b.large_window_update_conn, false, false)),
            ),
            (
                "self_dependency",
                format!("{:?}", probes::priority::self_dependency(&target)),
                format!("{:?}", predict(b.self_dependency, true, false)),
            ),
            (
                "headers_at_zero_window",
                format!("{}", probes::flow_control::headers_at_zero_window(&target)),
                format!("{}", !(b.fc_on_headers || b.headers_gated_at_zero_window)),
            ),
            (
                "push.supported",
                format!("{}", probes::push::probe(&push_target, &["/"]).supported),
                format!("{}", b.push),
            ),
            (
                // §5.1.2: every engine profile must gate pushed-stream
                // activation on the client's advertised limit — this is
                // protocol mechanics, not a quirk, so the prediction is
                // unconditionally "true".
                "push.promise_discipline",
                format!("{}", probes::push::promise_discipline(&push_target)),
                "true".to_string(),
            ),
            (
                "priority.passes",
                format!("{}", probes::priority::algorithm1(&target).passes()),
                format!("{}", b.priority_mode.passes_table_iii()),
            ),
            (
                "ping.supported",
                format!("{}", probes::ping::probe(&target, 1).supported),
                format!("{}", b.ping),
            ),
            (
                "abuse.rst_rate",
                format!("{:?}", probes::abuse::rst_rate(&target)),
                format!("{:?}", predict_abuse(b.rst_rate_limit.is_some())),
            ),
            (
                "abuse.settings_rate",
                format!("{:?}", probes::abuse::settings_rate(&target)),
                format!("{:?}", predict_abuse(b.settings_rate_limit.is_some())),
            ),
            (
                "abuse.continuation_bound",
                format!("{:?}", probes::abuse::continuation_bound(&target)),
                format!("{:?}", predict_abuse(b.continuation_cap.is_some())),
            ),
            (
                "abuse.stalled_stream",
                format!("{:?}", probes::abuse::stalled_stream(&target)),
                format!("{:?}", predict_abuse(b.stall_timeout.is_some())),
            ),
            (
                "abuse.header_list_bound",
                format!("{:?}", probes::abuse::header_list_bound(&target)),
                format!(
                    "{:?}",
                    if b.header_list_limit.is_some() {
                        predict(b.oversized_header_list, true, false)
                    } else {
                        Reaction::Ignored
                    }
                ),
            ),
        ];
        for (what, observed, predicted) in checks {
            total += 1;
            if observed == predicted {
                ok += 1;
            } else {
                report.findings.push(drift(
                    FILE,
                    1,
                    format!(
                        "{name}: probe {what} observed {observed}, quirk matrix predicts {predicted}"
                    ),
                ));
            }
        }
    }
    report.drift.push(format!(
        "dynamic quirks: {ok}/{total} probe classifications match the quirk matrices"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn struct_fields_are_extracted_with_lines() {
        let sf = lex("pub struct ServerBehavior {\n    pub tls: bool,\n    pub push: bool,\n    hidden: u8,\n}");
        let fields = struct_pub_fields(&sf, "ServerBehavior");
        assert_eq!(
            fields,
            vec![("tls".to_string(), 2), ("push".to_string(), 3)]
        );
    }

    #[test]
    fn probe_fns_require_a_target_parameter() {
        let sf = lex("pub fn probe(target: &Target) -> bool { true }\n\
             pub fn median(samples: &[f64]) -> f64 { 0.0 }\n\
             fn private(target: &Target) {}\n");
        let fns = probe_fns("ping", &sf);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].0, "ping::probe");
    }

    #[test]
    fn predictions_cover_the_action_matrix() {
        assert_eq!(predict(QuirkAction::Ignore, true, true), Reaction::Ignored);
        assert_eq!(
            predict(QuirkAction::RstStream, true, true),
            Reaction::RstStream
        );
        assert_eq!(
            predict(QuirkAction::RstStream, false, false),
            Reaction::Goaway
        );
        assert_eq!(
            predict(QuirkAction::Goaway, true, true),
            Reaction::GoawayWithDebug
        );
    }
}
