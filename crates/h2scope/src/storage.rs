//! Scan-report persistence — the paper's "database" (§IV-B: "we will
//! store the request and the response into a database for further
//! study").
//!
//! The format is a deliberately simple line-oriented `key=value` record
//! per site: grep-able, diff-able, append-able from parallel scan
//! shards, and with no external format dependencies. [`write_report`]
//! and [`read_report`] round-trip exactly.

use std::fmt::Write as _;

use crate::probes::flow_control::{FlowControlReport, SmallWindowOutcome};
use crate::probes::hpack::HpackReport;
use crate::probes::negotiation::NegotiationReport;
use crate::probes::priority::PriorityReport;
use crate::probes::push::PushReport;
use crate::probes::settings::SettingsReport;
use crate::probes::Reaction;
use crate::report::SiteReport;
use crate::resilient::{ProbeOutcome, ProbeStats};
use netsim::time::SimDuration;

/// Error while parsing a stored report line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReportError {
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseReportError {}

/// Escapes a value so it cannot contain a field separator (`|`), a key
/// separator (`=`), a list separator (`,`) or a line break — the one
/// escape of every record line, report fields and `h2campaign` meta
/// values alike.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            '=' => out.push_str("\\e"),
            ',' => out.push_str("\\c"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// A backslash followed by anything but `\\`, `p`, `n`, `e` or `c` (or by
/// nothing) is not something [`escape`] writes: the value is corrupt.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('p') => out.push('|'),
            Some('n') => out.push('\n'),
            Some('e') => out.push('='),
            Some('c') => out.push(','),
            Some(other) => return Err(format!("bad escape \\{other}")),
            None => return Err("bad escape: trailing \\".to_string()),
        }
    }
    Ok(out)
}

/// The fields of a record line: the slices between unescaped `|`
/// separators, borrowed from `line` (a trailing separator yields a final
/// empty field).
pub fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    let bytes = line.as_bytes();
    // Past `line.len()` once the last field is out.
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = bytes.get(start..)?;
        let mut len = 0;
        while let Some(&b) = rest.get(len) {
            match b {
                b'|' => break,
                // Skip the escaped octet; it is never a separator.
                b'\\' => len += 2,
                _ => len += 1,
            }
        }
        let end = (start + len).min(bytes.len());
        let field = line.get(start..end)?;
        start = end + 1;
        Some(field)
    })
}

/// The record code of each [`Reaction`].
const REACTIONS: [(Reaction, &str); 5] = [
    (Reaction::Ignored, "ign"),
    (Reaction::RstStream, "rst"),
    (Reaction::Goaway, "ga"),
    (Reaction::GoawayWithDebug, "gad"),
    (Reaction::Unknown, "unk"),
];

/// The record code of each [`SmallWindowOutcome`].
const SMALL_WINDOWS: [(SmallWindowOutcome, &str); 5] = [
    (SmallWindowOutcome::OneByteData, "one"),
    (SmallWindowOutcome::ZeroLenData, "zero"),
    (SmallWindowOutcome::HeadersOnly, "hdr"),
    (SmallWindowOutcome::NoResponse, "none"),
    (SmallWindowOutcome::Oversized, "over"),
];

/// The record code of each [`ProbeOutcome`].
const OUTCOMES: [(ProbeOutcome, &str); 5] = [
    (ProbeOutcome::Ok, "ok"),
    (ProbeOutcome::Timeout, "to"),
    (ProbeOutcome::ConnReset, "rst"),
    (ProbeOutcome::Malformed, "mal"),
    (ProbeOutcome::GaveUpAfterRetries, "gave"),
];

/// The code `table` gives `variant`.
#[expect(clippy::expect_used, reason = "each table lists every variant")]
fn code<T: PartialEq>(table: &[(T, &'static str)], variant: T) -> &'static str {
    table
        .iter()
        .find(|(v, _)| *v == variant)
        .map(|&(_, code)| code)
        .expect("every variant has a code")
}

/// The variant `table` gives `code`, if any.
fn variant<T: Copy>(table: &[(T, &str)], code: &str) -> Option<T> {
    table.iter().find(|(_, c)| *c == code).map(|&(v, _)| v)
}

fn opt_u32(v: Option<u32>) -> String {
    v.map_or_else(|| "-".into(), |x| x.to_string())
}

fn parse_opt_u32(s: &str) -> Result<Option<u32>, String> {
    if s == "-" {
        return Ok(None);
    }
    s.parse().map(Some).map_err(|_| format!("bad u32 {s:?}"))
}

/// Every key [`write_report`] writes. A line carrying any other key, or
/// one of these twice, or only part of a section (the keys sharing a
/// `fc.`/`pr.`/`pu.`/`hp.`/`pb.` prefix), is corrupt: partial campaign
/// records have no per-row checksum, so nothing else would catch the
/// flipped byte.
#[rustfmt::skip]
const KEYS: [&str; 28] = [
    "site", "alpn", "npn", "hdrs", "server",
    "st.recv", "st.hts", "st.push", "st.mcs", "st.iws", "st.mfs", "st.mhls",
    "fc.small", "fc.hzw", "fc.zus", "fc.zuc", "fc.lus", "fc.luc",
    "pr.last", "pr.first", "pr.blocked", "pr.self",
    "pu.octets", "pu.paths",
    "hp.sizes",
    "pb.out", "pb.att", "pb.bk",
];

/// The bits of the [`KEYS`] starting with `prefix`.
fn section_mask(prefix: &str) -> u64 {
    KEYS.iter()
        .enumerate()
        .filter(|(_, key)| key.starts_with(prefix))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// Serializes one report as a single record line.
pub fn write_report(report: &SiteReport) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "site={}|alpn={}|npn={}|hdrs={}|server={}",
        escape(&report.authority),
        report.negotiation.alpn_h2 as u8,
        report.negotiation.npn_h2 as u8,
        report.headers_received as u8,
        // A '+' prefix distinguishes a present value from the '-' absent
        // sentinel (a site could legitimately send "server: -").
        report
            .server_name
            .as_deref()
            .map_or_else(|| "-".into(), |n| format!("+{}", escape(n))),
    );
    let s = &report.settings;
    let _ = write!(
        line,
        "|st.recv={}|st.hts={}|st.push={}|st.mcs={}|st.iws={}|st.mfs={}|st.mhls={}",
        s.received as u8,
        opt_u32(s.header_table_size),
        opt_u32(s.enable_push),
        opt_u32(s.max_concurrent_streams),
        opt_u32(s.initial_window_size),
        opt_u32(s.max_frame_size),
        opt_u32(s.max_header_list_size),
    );
    if let Some(fc) = &report.flow_control {
        let _ = write!(
            line,
            "|fc.small={}|fc.hzw={}|fc.zus={}|fc.zuc={}|fc.lus={}|fc.luc={}",
            code(&SMALL_WINDOWS, fc.small_window),
            fc.headers_at_zero_window as u8,
            code(&REACTIONS, fc.zero_update_stream),
            code(&REACTIONS, fc.zero_update_conn),
            code(&REACTIONS, fc.large_update_stream),
            code(&REACTIONS, fc.large_update_conn),
        );
    }
    if let Some(p) = &report.priority {
        let _ = write!(
            line,
            "|pr.last={}|pr.first={}|pr.blocked={}|pr.self={}",
            p.by_last_frame as u8,
            p.by_first_frame as u8,
            p.headers_blocked_at_zero_conn_window as u8,
            code(&REACTIONS, p.self_dependency),
        );
    }
    if let Some(push) = &report.push {
        let _ = write!(
            line,
            "|pu.octets={}|pu.paths={}",
            push.pushed_octets,
            push.promised_paths
                .iter()
                .map(|p| escape(p))
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    if let Some(h) = &report.hpack {
        let _ = write!(
            line,
            "|hp.sizes={}",
            h.sizes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    let _ = write!(
        line,
        "|pb.out={}|pb.att={}|pb.bk={}",
        code(&OUTCOMES, report.probe.outcome),
        report.probe.attempts,
        report.probe.backoff.as_nanos(),
    );
    line
}

/// Serializes a whole campaign, one record per line.
pub fn write_reports<'a>(reports: impl IntoIterator<Item = &'a SiteReport>) -> String {
    let mut out = String::new();
    for report in reports {
        out.push_str(&write_report(report));
        out.push('\n');
    }
    out
}

/// Parses one record line.
///
/// # Errors
///
/// Returns [`ParseReportError`] when a field is missing, malformed,
/// repeated or not one [`write_report`] writes, or when an optional
/// section is only partly present.
pub fn read_report(line: &str) -> Result<SiteReport, ParseReportError> {
    let err = |message: String| ParseReportError { message };
    let mut fields: Vec<(&str, &str)> = Vec::new();
    // Bit `i` is set once `KEYS[i]` has been read.
    let mut seen = 0u64;
    for part in split_fields(line) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("field without '=': {part:?}")))?;
        let bit = KEYS
            .iter()
            .position(|known| *known == key)
            .map(|i| 1u64 << i)
            .ok_or_else(|| err(format!("unknown field {key:?}")))?;
        if seen & bit != 0 {
            return Err(err(format!("repeated field {key:?}")));
        }
        seen |= bit;
        fields.push((key, value));
    }
    // Fields are looked up by key, in any order.
    let find = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, value)| value)
    };
    let get = |key: &str| find(key).ok_or_else(|| err(format!("missing field {key}")));
    let get_bool = |key: &str| -> Result<bool, ParseReportError> {
        match get(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(err(format!("bad {key}: {other:?} is neither 0 nor 1"))),
        }
    };
    let get_opt = |key: &str| -> Result<Option<u32>, ParseReportError> {
        parse_opt_u32(get(key)?).map_err(&err)
    };
    let text = |value: &str| unescape(value).map_err(&err);
    let bad = |key: &str| err(format!("bad {key}"));
    let reaction = |key: &str| variant(&REACTIONS, get(key)?).ok_or_else(|| bad(key));
    // `write_report` writes each optional section whole or not at all.
    let present = |prefix: &str| match seen & section_mask(prefix) {
        0 => Ok(false),
        some if some == section_mask(prefix) => Ok(true),
        _ => Err(err(format!("incomplete {prefix}* section"))),
    };

    let settings = SettingsReport {
        received: get_bool("st.recv")?,
        header_table_size: get_opt("st.hts")?,
        enable_push: get_opt("st.push")?,
        max_concurrent_streams: get_opt("st.mcs")?,
        initial_window_size: get_opt("st.iws")?,
        max_frame_size: get_opt("st.mfs")?,
        max_header_list_size: get_opt("st.mhls")?,
    };
    let flow_control = if present("fc.")? {
        Some(FlowControlReport {
            small_window: variant(&SMALL_WINDOWS, get("fc.small")?)
                .ok_or_else(|| bad("fc.small"))?,
            headers_at_zero_window: get_bool("fc.hzw")?,
            zero_update_stream: reaction("fc.zus")?,
            zero_update_conn: reaction("fc.zuc")?,
            large_update_stream: reaction("fc.lus")?,
            large_update_conn: reaction("fc.luc")?,
        })
    } else {
        None
    };
    let priority = if present("pr.")? {
        Some(PriorityReport {
            by_last_frame: get_bool("pr.last")?,
            by_first_frame: get_bool("pr.first")?,
            headers_blocked_at_zero_conn_window: get_bool("pr.blocked")?,
            self_dependency: reaction("pr.self")?,
        })
    } else {
        None
    };
    let push = if present("pu.")? {
        let paths = get("pu.paths")?;
        Some(PushReport {
            pushed_octets: get("pu.octets")?.parse().map_err(|_| bad("pu.octets"))?,
            promised_paths: if paths.is_empty() {
                Vec::new()
            } else {
                paths.split(',').map(text).collect::<Result<_, _>>()?
            },
        })
    } else {
        None
    };
    // `write_report` writes an `hp.*` section only for a measurement: at
    // least one response size, the first of them (the ratio's divisor)
    // non-zero. So no stored report holds a NaN ratio.
    let hpack = if present("hp.")? {
        let sizes: Vec<usize> = get("hp.sizes")?
            .split(',')
            .map(|s| s.parse().map_err(|_| bad("hp.sizes")))
            .collect::<Result<_, _>>()?;
        if sizes.first().is_none_or(|&first| first == 0) {
            return Err(bad("hp.sizes"));
        }
        Some(HpackReport { sizes })
    } else {
        None
    };
    let probe = ProbeStats {
        outcome: variant(&OUTCOMES, get("pb.out")?).ok_or_else(|| bad("pb.out"))?,
        attempts: get("pb.att")?.parse().map_err(|_| bad("pb.att"))?,
        backoff: SimDuration::from_nanos(get("pb.bk")?.parse().map_err(|_| bad("pb.bk"))?),
    };
    let server = get("server")?;
    Ok(SiteReport {
        authority: text(get("site")?)?,
        negotiation: NegotiationReport {
            alpn_h2: get_bool("alpn")?,
            npn_h2: get_bool("npn")?,
        },
        server_name: server.strip_prefix('+').map(text).transpose()?,
        headers_received: get_bool("hdrs")?,
        settings,
        flow_control,
        priority,
        push,
        hpack,
        probe,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{H2Scope, Target};
    use h2server::{ServerProfile, SiteSpec};

    fn sample_reports() -> Vec<SiteReport> {
        let scope = H2Scope::new();
        vec![
            scope.survey(&Target::testbed(
                ServerProfile::gse(),
                SiteSpec::benchmark(),
            )),
            scope.survey(&Target::testbed(
                ServerProfile::nginx(),
                SiteSpec::benchmark(),
            )),
            scope.survey(&Target::testbed(
                ServerProfile::h2o(),
                SiteSpec::page_with_assets(2, 1_000),
            )),
        ]
    }

    #[test]
    fn round_trip_is_exact() {
        for report in sample_reports() {
            assert_eq!(read_report(&write_report(&report)).unwrap(), report);
        }
    }

    #[test]
    fn each_code_names_one_variant() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(table: &[(T, &'static str)]) {
            for &(v, c) in table {
                assert_eq!(variant(table, c), Some(v));
                assert_eq!(code(table, v), c);
            }
        }
        check(&REACTIONS);
        check(&SMALL_WINDOWS);
        check(&OUTCOMES);
    }

    #[test]
    fn special_characters_survive() {
        let mut report = sample_reports().remove(0);
        report.authority = "we|rd=site\nname\\x".into();
        report.server_name = Some("srv|1=2".into());
        let loaded = read_report(&write_report(&report)).unwrap();
        assert_eq!(loaded, report);
    }

    #[test]
    fn optional_sections_stay_optional() {
        let mut report = sample_reports().remove(0);
        report.flow_control = None;
        report.hpack = None;
        let loaded = read_report(&write_report(&report)).unwrap();
        assert_eq!(loaded.flow_control, None);
        assert_eq!(loaded.hpack, None);
        assert!(loaded.priority.is_some());
    }

    #[test]
    fn unknown_and_repeated_keys_are_parse_errors() {
        // The H2O row: it carries a `pu.*` section.
        let line = write_report(&sample_reports()[2]);
        assert!(read_report(&line).is_ok());
        let err = read_report(&line.replace("|pu.octets=", "|pu.octetz=")).unwrap_err();
        assert!(err.message.contains("unknown field \"pu.octetz\""), "{err}");
        let err = read_report(&format!("{line}|hdrs=0")).unwrap_err();
        assert!(err.message.contains("repeated field \"hdrs\""), "{err}");
        // A section loses a key: the rest of it must not be dropped
        // silently, and a row without `pb.*` is no 0-attempt probe.
        let without = |keys: &[&str]| {
            let kept = split_fields(&line).filter(|field| {
                let key = field.split_once('=').map_or(*field, |(key, _)| key);
                !keys.contains(&key)
            });
            kept.collect::<Vec<_>>().join("|")
        };
        // An HPACK section whose size list has no S₁ to divide by (empty,
        // or starting with 0) is no measurement: it is refused, naming the
        // field.
        let hpack = |section: &str| format!("{}|{section}", without(&["hp.sizes"]));
        for (row, message) in [
            (without(&["fc.small"]), "incomplete fc.* section"),
            (without(&["pr.last"]), "incomplete pr.* section"),
            (without(&["pu.octets"]), "incomplete pu.* section"),
            (
                without(&["pb.out", "pb.att", "pb.bk"]),
                "missing field pb.out",
            ),
            (hpack("hp.sizes="), "bad hp.sizes"),
            (hpack("hp.sizes=0,21"), "bad hp.sizes"),
        ] {
            let err = read_report(&row).unwrap_err();
            assert!(err.message.contains(message), "{row}: {err}");
        }
        assert!(read_report(&hpack("hp.sizes=21,0")).is_ok());
    }
}
