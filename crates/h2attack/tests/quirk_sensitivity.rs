//! The quirk matrix keeps one field per server choice, and every field
//! moves a measurement. For each of the eleven profiles, each field of
//! `ServerBehavior` is set to each alternative value, one field at a
//! time. Every such server must survey as `h2scope::expected` predicts;
//! on the seven profiles of the robustness matrix, it must also harden
//! as `AbuseHardeningReport::declared` predicts. Every field must move
//! its named observer on at least one profile, and every verdict a
//! survey reports must be moved by at least one mutation: a verdict
//! nothing moves is a probe that cannot fail.
//!
//! `mutations` destructures `ServerBehavior` without `..`: a new field
//! does not compile until it has a row here. `verdict_values`
//! destructures `Verdicts` and `SettingsReport` the same way: a new
//! verdict does not compile until it is listed, and then must move.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use h2attack::{hardening, AbuseHardeningReport};
use h2fault::{ByzantineSpec, RetryPolicy};
use h2scope::expected::{expected, Verdicts};
use h2scope::probes::settings::SettingsReport;
use h2scope::{probes, survey_with_retries, H2Scope, ProbeOutcome, Target};
use h2server::behavior::PriorityMode;
use h2server::{
    HeadersFlowControl, PushPolicy, QuirkAction, ServerBehavior, ServerProfile, SiteSpec,
};
use h2wire::{SettingId, Settings};
use netsim::time::SimDuration;
use netsim::TlsConfig;

/// The measurement a field is expected to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Observer {
    /// The survey's [`Verdicts`].
    Verdicts,
    /// The HPACK probe's response HEADERS sizes.
    HpackSizes,
    /// `compare_rtt`'s HTTP/1.1 request samples.
    Http1Rtt,
    /// The outcome of one survey of a patient target.
    PatientOutcome,
    /// The robustness row.
    Robustness,
}

/// One server that differs from a profile in exactly one field.
struct Mutation {
    field: &'static str,
    observer: Observer,
    behavior: ServerBehavior,
}

/// Every single-field alternative of `b`.
fn mutations(b: &ServerBehavior) -> Vec<Mutation> {
    let ServerBehavior {
        server_name,
        tls,
        headers_flow_control,
        mute,
        extra_response_headers,
        zero_window_update_stream,
        zero_window_update_conn,
        zero_window_debug,
        large_window_update_stream,
        large_window_update_conn,
        push,
        push_policy,
        priority_mode,
        self_dependency,
        hpack_index_responses,
        announced,
        zero_len_data_when_blocked,
        cookie_injection,
        processing_delay,
        byzantine,
        rst_rate_limit,
        settings_rate_limit,
        continuation_cap,
        stall_timeout,
        header_list_limit,
    } = b;
    let mut out = Vec::new();
    // Each value that differs from the field's current one is a mutation.
    macro_rules! vary {
        ($field:ident, $observer:ident, $values:expr) => {
            for value in $values {
                if value != *$field {
                    let mut behavior = b.clone();
                    behavior.$field = value;
                    out.push(Mutation {
                        field: stringify!($field),
                        observer: Observer::$observer,
                        behavior,
                    });
                }
            }
        };
    }
    let (ignore, rst, goaway) = (
        QuirkAction::Ignore,
        QuirkAction::RstStream,
        QuirkAction::Goaway,
    );
    vary!(server_name, Verdicts, ["sweep/1.0".to_string()]);
    vary!(
        tls,
        Verdicts,
        [
            TlsConfig::h2_full(),
            TlsConfig::h2_alpn_only(),
            TlsConfig::h2_npn_only(),
            TlsConfig::http1_only(),
        ]
    );
    vary!(
        headers_flow_control,
        Verdicts,
        [
            HeadersFlowControl::Off,
            HeadersFlowControl::AtZeroWindow,
            HeadersFlowControl::Full,
        ]
    );
    vary!(mute, Verdicts, [!*mute]);
    vary!(
        extra_response_headers,
        HpackSizes,
        [if extra_response_headers.is_empty() {
            vec![("x-sweep".to_string(), "extra".to_string())]
        } else {
            Vec::new()
        }]
    );
    vary!(zero_window_update_stream, Verdicts, [ignore, rst, goaway]);
    vary!(zero_window_update_conn, Verdicts, [ignore, rst, goaway]);
    vary!(zero_window_debug, Verdicts, [!*zero_window_debug]);
    vary!(large_window_update_stream, Verdicts, [ignore, rst, goaway]);
    vary!(large_window_update_conn, Verdicts, [ignore, rst, goaway]);
    vary!(push, Verdicts, [!*push]);
    vary!(push_policy, Verdicts, PushPolicy::ALL_POLICIES);
    vary!(
        priority_mode,
        Verdicts,
        [
            PriorityMode::None,
            PriorityMode::Strict,
            PriorityMode::CompletionOrder,
            PriorityMode::FirstFrameOnly,
        ]
    );
    vary!(self_dependency, Verdicts, [ignore, rst, goaway]);
    vary!(hpack_index_responses, Verdicts, [!*hpack_index_responses]);
    vary!(
        announced,
        Verdicts,
        [
            Settings::new(),
            announced.clone().with(SettingId::InitialWindowSize, 0),
            announced.clone().with(SettingId::MaxConcurrentStreams, 4),
            announced.clone().with(SettingId::HeaderTableSize, 8_192),
            announced.clone().with(SettingId::EnablePush, 0),
        ]
    );
    vary!(
        zero_len_data_when_blocked,
        Verdicts,
        [!*zero_len_data_when_blocked]
    );
    vary!(cookie_injection, HpackSizes, [!*cookie_injection]);
    vary!(
        processing_delay,
        Http1Rtt,
        [*processing_delay + SimDuration::from_millis(20)]
    );
    vary!(
        byzantine,
        PatientOutcome,
        [
            None,
            Some(ByzantineSpec {
                garbage_preface: true,
                ..ByzantineSpec::default()
            }),
        ]
    );
    vary!(rst_rate_limit, Robustness, [None, Some(100)]);
    vary!(settings_rate_limit, Robustness, [None, Some(100)]);
    vary!(continuation_cap, Robustness, [None, Some(16_384)]);
    vary!(
        stall_timeout,
        Robustness,
        [None, Some(SimDuration::from_secs(30))]
    );
    vary!(
        header_list_limit,
        Robustness,
        [
            None,
            Some((8_192, ignore)),
            Some((8_192, rst)),
            Some((8_192, goaway)),
        ]
    );
    out
}

/// What `observer` reads off a server behaving as `b`, rendered so two
/// readings compare as strings.
fn observe(observer: Observer, b: &ServerBehavior, checked: &Checked) -> String {
    let target = Target::testbed(profile(b), SiteSpec::testbed());
    match observer {
        Observer::Verdicts => format!("{:?}", checked.verdicts),
        Observer::HpackSizes => format!("{:?}", checked.hpack_sizes),
        Observer::Robustness => format!("{:?}", checked.hardening),
        Observer::Http1Rtt => format!("{:?}", probes::ping::compare_rtt(&target, 3, 7).h1_request),
        Observer::PatientOutcome => format!("{:?}", patient_outcome(b)),
    }
}

fn profile(b: &ServerBehavior) -> ServerProfile {
    let mut profile = ServerProfile::rfc7540();
    profile.behavior = b.clone();
    profile
}

/// One survey over a deadline-armed link, without retries: a byzantine
/// server fails it instead of panicking the testbed client.
fn patient_outcome(b: &ServerBehavior) -> ProbeOutcome {
    let survey = survey_with_retries(&H2Scope::new(), RetryPolicy::no_retry(), 7, |_| {
        let mut target = Target::testbed(profile(b), SiteSpec::testbed());
        target.patience = Some(SimDuration::from_secs(5));
        target
    });
    survey.probe.outcome
}

/// The readings the oracles predict: a survey of the testbed site and,
/// for the profiles the robustness matrix covers, the robustness row on
/// its benchmark site.
struct Checked {
    verdicts: Verdicts,
    hpack_sizes: Option<Vec<usize>>,
    hardening: Option<AbuseHardeningReport>,
}

fn check(b: &ServerBehavior, robustness: bool) -> Checked {
    let report = H2Scope::new().survey(&Target::testbed(profile(b), SiteSpec::testbed()));
    Checked {
        verdicts: Verdicts::of(&report),
        hpack_sizes: report.hpack.map(|h| h.sizes),
        hardening: robustness
            .then(|| hardening(&Target::testbed(profile(b), SiteSpec::benchmark()))),
    }
}

/// Every value of a survey's verdicts by name, rendered so two readings
/// compare as strings: the fields of `Verdicts`, with its
/// `SettingsReport` taken field by field (field names do not repeat
/// between the two).
fn verdict_values(v: &Verdicts) -> Vec<(&'static str, String)> {
    let Verdicts {
        alpn_h2,
        npn_h2,
        headers_received,
        server_name,
        settings,
        small_window,
        headers_at_zero_window,
        zero_update_stream,
        zero_update_conn,
        large_update_stream,
        large_update_conn,
        by_last_frame,
        by_first_frame,
        headers_blocked_at_zero_conn_window,
        self_dependency,
        push,
        hpack_indexes_responses,
    } = v;
    let SettingsReport {
        header_table_size,
        enable_push,
        max_concurrent_streams,
        initial_window_size,
        max_frame_size,
        max_header_list_size,
        received,
    } = settings;
    macro_rules! values {
        ($($field:ident),*) => {
            vec![$((stringify!($field), format!("{:?}", $field))),*]
        };
    }
    values![
        alpn_h2,
        npn_h2,
        headers_received,
        server_name,
        small_window,
        headers_at_zero_window,
        zero_update_stream,
        zero_update_conn,
        large_update_stream,
        large_update_conn,
        by_last_frame,
        by_first_frame,
        headers_blocked_at_zero_conn_window,
        self_dependency,
        push,
        hpack_indexes_responses,
        header_table_size,
        enable_push,
        max_concurrent_streams,
        initial_window_size,
        max_frame_size,
        max_header_list_size,
        received
    ]
}

/// What sweeping one profile found: the fields it varied, those whose
/// observer moved, the verdicts some mutation moved, and the mutations
/// an oracle got wrong.
#[derive(Default)]
struct Sweep {
    mutations: usize,
    fields: BTreeSet<&'static str>,
    moved: BTreeSet<&'static str>,
    moved_verdicts: BTreeSet<&'static str>,
    disagreements: Vec<String>,
}

fn sweep(name: &str, base: &ServerBehavior, robustness: bool) -> Sweep {
    let site = SiteSpec::testbed();
    let base_checked = check(base, robustness);
    let base_verdicts = verdict_values(&base_checked.verdicts);
    let mut before = BTreeMap::new();
    let mut sweep = Sweep::default();
    for m in mutations(base) {
        sweep.mutations += 1;
        sweep.fields.insert(m.field);
        // A byzantine server is not a healthy one, which is all the
        // oracles speak for; its observer alone is read.
        let after = if m.behavior.byzantine.is_some() {
            format!("{:?}", patient_outcome(&m.behavior))
        } else {
            let checked = check(&m.behavior, robustness);
            if checked.verdicts != expected(&m.behavior, &site) {
                sweep
                    .disagreements
                    .push(format!("{name} {}: survey", m.field));
            }
            let moved = verdict_values(&checked.verdicts)
                .into_iter()
                .zip(&base_verdicts)
                .filter(|(after, before)| after != *before)
                .map(|((verdict, _), _)| verdict);
            sweep.moved_verdicts.extend(moved);
            if checked
                .hardening
                .is_some_and(|h| h != AbuseHardeningReport::declared(&m.behavior))
            {
                sweep
                    .disagreements
                    .push(format!("{name} {}: robustness", m.field));
            }
            observe(m.observer, &m.behavior, &checked)
        };
        let before = before
            .entry(m.observer)
            .or_insert_with(|| observe(m.observer, base, &base_checked));
        if *before != after {
            sweep.moved.insert(m.field);
        }
    }
    sweep
}

#[test]
fn every_quirk_moves_its_observer_as_the_oracles_predict() {
    let robustness: BTreeSet<String> = ServerProfile::testbed_and_reference()
        .into_iter()
        .map(|p| p.behavior.server_name)
        .collect();
    // Two workers take the profiles one at a time.
    let queue = Mutex::new(ServerProfile::all().into_iter());
    let total = Mutex::new(Sweep::default());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let Some((name, make)) = queue.lock().expect("queue").next() else {
                    break;
                };
                let base = make().behavior;
                let sweep = sweep(name, &base, robustness.contains(&base.server_name));
                let mut total = total.lock().expect("total");
                total.mutations += sweep.mutations;
                total.fields.extend(sweep.fields);
                total.moved.extend(sweep.moved);
                total.moved_verdicts.extend(sweep.moved_verdicts);
                total.disagreements.extend(sweep.disagreements);
            });
        }
    });
    let total = total.into_inner().expect("total");
    assert!(total.disagreements.is_empty(), "{:#?}", total.disagreements);
    let unmoved: Vec<_> = total.fields.difference(&total.moved).collect();
    assert!(unmoved.is_empty(), "fields no observer sees: {unmoved:?}");
    let verdicts = verdict_values(&expected(
        &ServerProfile::rfc7540().behavior,
        &SiteSpec::testbed(),
    ));
    let unmoved: Vec<_> = verdicts
        .iter()
        .map(|&(verdict, _)| verdict)
        .filter(|verdict| !total.moved_verdicts.contains(verdict))
        .collect();
    assert!(
        unmoved.is_empty(),
        "verdicts no mutation moves: {unmoved:?}"
    );
    assert_eq!(verdicts.len(), 23, "{verdicts:?}");
    assert_eq!(
        total.fields.len(),
        25,
        "one row per field: {:?}",
        total.fields
    );
    assert_eq!(total.mutations, 487, "single-field servers swept");
}
