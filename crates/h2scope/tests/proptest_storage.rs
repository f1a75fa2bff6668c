//! Property-based round-trip tests for the scan-report storage format.

use h2scope::probes::flow_control::{FlowControlReport, SmallWindowOutcome};
use h2scope::probes::hpack::HpackReport;
use h2scope::probes::negotiation::NegotiationReport;
use h2scope::probes::priority::PriorityReport;
use h2scope::probes::push::PushReport;
use h2scope::probes::settings::SettingsReport;
use h2scope::probes::Reaction;
use h2scope::storage::{escape, read_report, split_fields, unescape, write_report};
use h2scope::{ProbeOutcome, ProbeStats, SiteReport};
use netsim::time::SimDuration;
use proptest::prelude::*;

fn arb_outcome() -> impl Strategy<Value = ProbeOutcome> {
    prop_oneof![
        Just(ProbeOutcome::Ok),
        Just(ProbeOutcome::Timeout),
        Just(ProbeOutcome::ConnReset),
        Just(ProbeOutcome::Malformed),
        Just(ProbeOutcome::GaveUpAfterRetries),
    ]
}

fn arb_reaction() -> impl Strategy<Value = Reaction> {
    prop_oneof![
        Just(Reaction::Ignored),
        Just(Reaction::RstStream),
        Just(Reaction::Goaway),
        Just(Reaction::GoawayWithDebug),
        Just(Reaction::Unknown),
    ]
}

fn arb_small_window() -> impl Strategy<Value = SmallWindowOutcome> {
    prop_oneof![
        Just(SmallWindowOutcome::OneByteData),
        Just(SmallWindowOutcome::ZeroLenData),
        Just(SmallWindowOutcome::HeadersOnly),
        Just(SmallWindowOutcome::NoResponse),
        Just(SmallWindowOutcome::Oversized),
    ]
}

prop_compose! {
    fn arb_settings()(
        received in any::<bool>(),
        hts in prop::option::of(any::<u32>()),
        push in prop::option::of(0u32..2),
        mcs in prop::option::of(any::<u32>()),
        iws in prop::option::of(any::<u32>()),
        mfs in prop::option::of(any::<u32>()),
        mhls in prop::option::of(any::<u32>()),
    ) -> SettingsReport {
        SettingsReport {
            received,
            header_table_size: hts,
            enable_push: push,
            max_concurrent_streams: mcs,
            initial_window_size: iws,
            max_frame_size: mfs,
            max_header_list_size: mhls,
        }
    }
}

prop_compose! {
    fn arb_report()(
        authority in "[ -~]{1,40}",
        alpn in any::<bool>(),
        npn in any::<bool>(),
        headers_received in any::<bool>(),
        server_name in prop::option::of("[ -~]{1,24}"),
        settings in arb_settings(),
        fc in prop::option::of((
            arb_small_window(), any::<bool>(), arb_reaction(), arb_reaction(),
            arb_reaction(), arb_reaction(),
        )),
        pr in prop::option::of((
            any::<bool>(), any::<bool>(), any::<bool>(), arb_reaction(),
        )),
        push in prop::option::of((
            any::<u64>(),
            prop::collection::vec("[!-~]{1,12}", 0..4),
        )),
        hpack in prop::option::of(prop::collection::vec(1usize..500, 1..8)),
        probe in (arb_outcome(), 1u32..5, 0u64..10_000_000_000),
    ) -> SiteReport {
        SiteReport {
            authority,
            negotiation: NegotiationReport { alpn_h2: alpn, npn_h2: npn },
            server_name,
            headers_received,
            settings,
            flow_control: fc.map(|(sw, hzw, zus, zuc, lus, luc)| FlowControlReport {
                small_window: sw,
                headers_at_zero_window: hzw,
                zero_update_stream: zus,
                zero_update_conn: zuc,
                large_update_stream: lus,
                large_update_conn: luc,
            }),
            priority: pr.map(|(last, first, blocked, self_dep)| PriorityReport {
                by_last_frame: last,
                by_first_frame: first,
                headers_blocked_at_zero_conn_window: blocked,
                self_dependency: self_dep,
            }),
            push: push.map(|(octets, paths)| PushReport {
                pushed_octets: octets,
                promised_paths: paths,
            }),
            hpack: hpack.map(|sizes| HpackReport { sizes }),
            probe: ProbeStats {
                outcome: probe.0,
                attempts: probe.1,
                backoff: SimDuration::from_nanos(probe.2),
            },
        }
    }
}

proptest! {
    /// Every representable report round-trips exactly, each measurement
    /// in one field: 15 always, plus 6 `fc.*`, 4 `pr.*`, 2 `pu.*` and 1
    /// `hp.*` when the section is present — 28 in all.
    #[test]
    fn storage_round_trips(report in arb_report()) {
        let line = write_report(&report);
        prop_assert!(!line.contains('\n'), "records are single lines");
        let sections = [
            (report.flow_control.is_some(), 6),
            (report.priority.is_some(), 4),
            (report.push.is_some(), 2),
            (report.hpack.is_some(), 1),
        ];
        let fields = 15 + sections.iter().filter(|(present, _)| *present).map(|(_, n)| n).sum::<usize>();
        prop_assert_eq!(split_fields(&line).count(), fields);
        let loaded = read_report(&line).expect("parses");
        prop_assert_eq!(loaded, report);
    }

    /// A flag byte that is neither `0` nor `1` is a parse error, never a
    /// silent `false`: replacing any boolean field's value with another
    /// token makes the whole line unreadable.
    #[test]
    fn corrupted_flag_values_are_rejected(
        report in arb_report(),
        // Any printable token without a field separator, except `0` and `1`.
        token in prop_oneof!["[ -/2-{}~]{0,1}", "[ -{}~]{2,3}"],
    ) {
        let line = write_report(&report);
        for key in [
            "alpn", "npn", "hdrs", "st.recv", "fc.hzw", "pr.last", "pr.first", "pr.blocked",
        ] {
            // Boolean values are a single digit; `server=` always follows
            // `hdrs=`, so every key is followed by a separator.
            let Some(at) = line.find(&format!("|{key}=")) else { continue };
            let value_at = at + key.len() + 2;
            let mut corrupted = line.clone();
            corrupted.replace_range(value_at..value_at + 1, &token);
            prop_assert!(read_report(&corrupted).is_err(), "{key}={token:?} parsed");
        }
    }

    /// The shared escape: any value — dense in all five specials —
    /// escapes to a single field that holds no separator, and comes back
    /// exactly, both on its own and as a report field.
    #[test]
    fn every_special_survives_the_shared_escape(
        value in "[ab|=,\\\\\n]{1,24}",
        report in arb_report(),
    ) {
        let escaped = escape(&value);
        prop_assert!(!escaped.contains(['\n', '=', ',']), "{escaped:?}");
        prop_assert_eq!(split_fields(&escaped).collect::<Vec<_>>(), vec![escaped.as_str()]);
        prop_assert_eq!(unescape(&escaped), Ok(value.clone()));
        let report = SiteReport {
            authority: value.clone(),
            server_name: Some(value),
            ..report
        };
        prop_assert_eq!(read_report(&write_report(&report)), Ok(report));
    }

    /// A backslash followed by anything `escape` never writes marks a
    /// corrupted value: it is a parse error, not kept as it stands.
    #[test]
    fn unknown_escapes_are_rejected(
        report in arb_report(),
        // Printable, minus the five escape letters `\ p n e c`.
        bad in "[ -Z^-bdf-moq-~]",
    ) {
        let line = write_report(&report).replacen("site=", &format!("site=\\{bad}"), 1);
        prop_assert!(read_report(&line).is_err(), "\\{bad} accepted");
        prop_assert!(unescape(&format!("x\\{bad}")).is_err());
        prop_assert!(unescape("dangling\\").is_err());
    }

    /// Arbitrary garbage never panics the parser.
    #[test]
    fn parser_never_panics(noise in "[ -~|=\\\\]{0,120}") {
        let _ = read_report(&noise);
    }
}
