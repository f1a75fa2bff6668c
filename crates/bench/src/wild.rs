//! Wild-scan generators: adoption (§V-B), Table IV, Tables V–VII, Figure
//! 2, the §V-D flow-control aggregates and the §V-E priority aggregates.
//!
//! Each §V-B1, §V-D and §V-E count is a `Row`: a predicate over the
//! [`Verdicts`] a survey measured, against the paper's count. `tally`
//! counts a section's rows in one pass and `Table::render` prints them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use h2campaign::{fmt_count, upscale, CampaignRow};
use h2scope::expected::Verdicts;
use h2scope::probes::flow_control::SmallWindowOutcome;
use h2scope::probes::settings::SettingsReport;
use h2scope::{ProbeOutcome, ProbeStats, Reaction};
use webpop::marginals::{
    ValueCount, INITIAL_WINDOW_SIZE, MAX_FRAME_SIZE, MAX_HEADER_LIST_SIZE, UNLIMITED,
};
use webpop::{ExperimentSpec, Population};

use crate::stats::{apportion, spark_cdf};

/// One count a §V table prints: the sites whose [`Verdicts`] satisfy
/// `holds`, against the paper's count. A row the paper has no count for
/// counts the probes whose connection failed before any reaction came
/// back, and prints only when non-zero ([`unknown_row`]).
pub(crate) struct Row {
    pub(crate) label: &'static str,
    pub(crate) holds: fn(&Verdicts) -> bool,
    pub(crate) paper: Option<u64>,
}

fn row(label: &'static str, holds: fn(&Verdicts) -> bool, paper: impl Into<Option<u64>>) -> Row {
    let paper = paper.into();
    Row {
        label,
        holds,
        paper,
    }
}

/// Rows printed in one [`paper_row`] layout, under an optional heading.
pub(crate) struct Table {
    heading: Option<&'static str>,
    /// `indent`, label `pad` and count `width`, as [`paper_row`] takes them.
    layout: [usize; 3],
    /// The rows with a paper count partition (a subset of) the
    /// HEADERS-returning sites, so their paper-scale column is apportioned
    /// against that total; otherwise each row is upscaled on its own.
    partition: bool,
    pub(crate) rows: Vec<Row>,
}

impl Table {
    /// Appends the heading and one line per row, given the rows' counts
    /// in order and the number of HEADERS-returning sites.
    fn render(&self, out: &mut String, counts: &[u64], headers: u64, scale: f64) {
        if let Some(heading) = self.heading {
            writeln!(out, "  {heading}").unwrap();
        }
        let listed: Vec<u64> = self
            .rows
            .iter()
            .zip(counts)
            .filter_map(|(row, &count)| row.paper.map(|_| count))
            .collect();
        let scaled = if self.partition {
            upscaled_rows(&listed, headers, scale)
        } else {
            listed.iter().map(|&count| upscale(count, scale)).collect()
        };
        let mut scaled = scaled.into_iter();
        for (row, &measured) in self.rows.iter().zip(counts) {
            match row.paper {
                Some(paper) => {
                    let counts = [measured, scaled.next().expect("one per paper row"), paper];
                    paper_row(out, self.layout, row.label, counts);
                }
                None => unknown_row(out, self.layout, row.label, measured),
            }
        }
    }
}

/// How many records each row holds for (`counts[i][j]` is `lists[i][j]`'s
/// count) and how many returned HEADERS: one pass, one [`Verdicts::of`]
/// per record.
fn tally(records: &[CampaignRow], lists: &[&[Row]]) -> (Vec<Vec<u64>>, u64) {
    let mut counts: Vec<Vec<u64>> = lists.iter().map(|rows| vec![0; rows.len()]).collect();
    let mut headers = 0;
    for record in records {
        let verdicts = Verdicts::of(&record.report);
        headers += u64::from(verdicts.headers_received);
        for (counts, rows) in counts.iter_mut().zip(lists) {
            for (count, row) in counts.iter_mut().zip(rows.iter()) {
                *count += u64::from((row.holds)(&verdicts));
            }
        }
    }
    (counts, headers)
}

/// The verdicts of every survey that got HEADERS back.
fn headers_verdicts(records: &[CampaignRow]) -> impl Iterator<Item = Verdicts> + '_ {
    records
        .iter()
        .map(|record| Verdicts::of(&record.report))
        .filter(|verdicts| verdicts.headers_received)
}

/// Appends the abstention line when no surveyed site returned HEADERS,
/// and says whether it did: every row of the tables that call it counts
/// HEADERS-returning sites, and zeros over none would read as sites that
/// lack each behaviour.
fn abstains(out: &mut String, headers: u64) -> bool {
    if headers == 0 {
        writeln!(out, "  (no HEADERS-returning site was surveyed)").unwrap();
    }
    headers == 0
}

/// Upscales a group of rows that partition (a subset of) `total` sites.
/// Independent per-row rounding lets the upscaled rows drift from the
/// upscaled total at scale < 1 (each row rounds on its own); instead the
/// rows — plus an implicit remainder row covering the sites the table
/// doesn't print — are apportioned against `upscale(total)` by largest
/// remainder ([`apportion`]), so printed rows + unprinted remainder sum
/// exactly to the upscaled column total at every scale.
fn upscaled_rows(counts: &[u64], total: u64, scale: f64) -> Vec<u64> {
    let listed: u64 = counts.iter().sum();
    debug_assert!(listed <= total, "rows exceed their column total");
    let mut with_remainder = counts.to_vec();
    with_remainder.push(total.saturating_sub(listed));
    let mut shares = apportion(&with_remainder, upscale(total, scale));
    shares.pop();
    shares
}

/// Appends one `measured / paper-scale / paper` comparison row: `label`
/// behind `indent` spaces and padded to `pad` columns, then the three
/// counts right-aligned in `width`, `width + 1` and `width + 1` columns.
fn paper_row(out: &mut String, [indent, pad, width]: [usize; 3], label: &str, counts: [u64; 3]) {
    let [measured, scaled, paper] = counts.map(fmt_count);
    let wide = width + 1;
    writeln!(
        out,
        "{:indent$}{label:<pad$} measured {measured:>width$}  paper-scale {scaled:>wide$}  paper {paper:>wide$}",
        ""
    )
    .unwrap();
}

/// Appends the `label` row of a reaction table that counts probes whose
/// connection failed before any reaction came back — unless there were
/// none. A testbed connection never fails, so only a fault campaign can
/// print this row; the paper has no such row.
fn unknown_row(out: &mut String, [indent, pad, width]: [usize; 3], label: &str, count: u64) {
    if count == 0 {
        return;
    }
    writeln!(
        out,
        "{:indent$}{label:<pad$} measured {:>width$}  (connection failed before a reaction)",
        "",
        fmt_count(count)
    )
    .unwrap();
}

/// Appends a `measured / paper-scale / paper` table: a header line, then
/// one line per `(name, measured, paper)` row. The rows partition (a
/// subset of) `total` sites, so their paper-scale column is apportioned
/// against the upscaled total rather than rounded row by row.
fn paper_table(
    out: &mut String,
    heading: &str,
    pad: usize,
    rows: &[(String, u64, u64)],
    total: u64,
    scale: f64,
) {
    let mut line = |name: &str, measured: &str, scaled: &str, paper: &str| {
        writeln!(out, "  {name:<pad$}{measured:>10}{scaled:>14}{paper:>10}").unwrap();
    };
    line(heading, "measured", "paper-scale", "paper");
    let measured: Vec<u64> = rows.iter().map(|&(_, measured, _)| measured).collect();
    let scaled = upscaled_rows(&measured, total, scale);
    for ((name, measured, paper), scaled) in rows.iter().zip(scaled) {
        line(
            name,
            &fmt_count(*measured),
            &fmt_count(scaled),
            &fmt_count(*paper),
        );
    }
}

/// §V-B1's rows, over all h2 sites.
#[rustfmt::skip]
pub(crate) fn adoption_rows(spec: &ExperimentSpec) -> [Row; 3] {
    [
        row("NPN h2 sites", |v| v.npn_h2, spec.npn_sites),
        row("ALPN h2 sites", |v| v.alpn_h2, spec.alpn_sites),
        row("HEADERS-returning sites", |v| v.headers_received, spec.headers_sites),
    ]
}

/// §V-B1: ALPN/NPN adoption counts.
pub fn adoption(records: &[CampaignRow], population: &Population) -> String {
    let spec = population.spec();
    let scale = population.scale();
    let rows = adoption_rows(spec);
    let (counts, _) = tally(records, &[&rows]);
    let mut out = String::new();
    writeln!(out, "§V-B1 — Adoption ({}; scale {scale})", spec.label).unwrap();
    for (row, &measured) in rows.iter().zip(&counts[0]) {
        writeln!(
            out,
            "  {:<26} measured {:>9}  (paper-scale est. {:>9}, paper {:>9})",
            row.label,
            fmt_count(measured),
            fmt_count(upscale(measured, scale)),
            fmt_count(row.paper.unwrap_or_default())
        )
        .unwrap();
    }
    out
}

/// §V-B2 / Table IV: server families by `server` response header.
pub fn table4(records: &[CampaignRow], population: &Population) -> String {
    use webpop::marginals::{FAMILIES, SERVER_KINDS};
    use webpop::Family;
    // Versioned names collapse into families the way the paper's table
    // does; the first matching prefix wins.
    const FAMILY_PREFIXES: [(&str, &str); 5] = [
        ("nginx", "Nginx"),
        ("Tengine/Aserver", "Tengine/Aserver"),
        ("Tengine", "Tengine"),
        ("LiteSpeed", "Litespeed"),
        ("IdeaWebServer", "IdeaWebServer/v0.80"),
    ];
    let scale = population.scale();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for verdicts in headers_verdicts(records) {
        let name = verdicts
            .server_name
            .unwrap_or_else(|| "(no server header)".to_string());
        let family = FAMILY_PREFIXES
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix))
            .map_or(name, |(_, family)| family.to_string());
        *counts.entry(family).or_default() += 1;
    }
    let distinct = counts.len();
    let headers_total: u64 = counts.values().map(|&c| c as u64).sum();
    let second = population.spec().second;
    let paper_kinds = if second {
        SERVER_KINDS.1
    } else {
        SERVER_KINDS.0
    };
    let mut out = String::new();
    writeln!(
        out,
        "TABLE IV — Top server families ({}; {distinct} distinct names seen, paper {paper_kinds})",
        population.spec().label,
    )
    .unwrap();
    if abstains(&mut out, headers_total) {
        return out;
    }
    let table: Vec<(String, u64, u64)> = FAMILIES
        .iter()
        .filter_map(|&(family, exp1, exp2)| {
            let name = match family {
                Family::Litespeed => "Litespeed",
                Family::Nginx => "Nginx",
                Family::Gse => "GSE",
                Family::Tengine => "Tengine",
                Family::CloudflareNginx => "cloudflare-nginx",
                Family::IdeaWeb => "IdeaWebServer/v0.80",
                Family::TengineAserver => "Tengine/Aserver",
                Family::Tail => return None,
            };
            let measured = counts.get(name).map_or(0, |&c| c as u64);
            Some((name.to_string(), measured, if second { exp2 } else { exp1 }))
        })
        .collect();
    paper_table(&mut out, "Server", 22, &table, headers_total, scale);
    out
}

/// A SETTINGS distribution table (Tables V–VII): the HEADERS-returning
/// sites by the value `extract` reads, against the paper's `marginal`.
fn settings_table(
    title: &str,
    records: &[CampaignRow],
    population: &Population,
    marginal: &[ValueCount],
    extract: fn(&SettingsReport) -> Option<u32>,
) -> String {
    let scale = population.scale();
    let second = population.spec().second;
    let mut counts: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    for verdicts in headers_verdicts(records) {
        *counts.entry(extract(&verdicts.settings)).or_default() += 1;
    }
    let mut out = String::new();
    writeln!(out, "{title} ({})", population.spec().label).unwrap();
    // Each listed value is a distinct key, so the rows partition (a
    // subset of) the headers-returning sites.
    let total: u64 = counts.values().sum();
    if abstains(&mut out, total) {
        return out;
    }
    let table: Vec<(String, u64, u64)> = marginal
        .iter()
        .map(|vc| {
            let value = match vc.value {
                None => "NULL".to_string(),
                Some(UNLIMITED) => "unlimited".to_string(),
                Some(x) => fmt_count(u64::from(x)),
            };
            let paper = if second { vc.exp2 } else { vc.exp1 };
            (value, counts.get(&vc.value).copied().unwrap_or(0), paper)
        })
        .collect();
    paper_table(&mut out, "Value", 16, &table, total, scale);
    out
}

/// Table V: `SETTINGS_INITIAL_WINDOW_SIZE` distribution.
pub fn table5(records: &[CampaignRow], population: &Population) -> String {
    let title = "TABLE V — SETTINGS_INITIAL_WINDOW_SIZE";
    settings_table(title, records, population, INITIAL_WINDOW_SIZE, |s| {
        s.initial_window_size
    })
}

/// Table VI: `SETTINGS_MAX_FRAME_SIZE` distribution.
pub fn table6(records: &[CampaignRow], population: &Population) -> String {
    let title = "TABLE VI — SETTINGS_MAX_FRAME_SIZE";
    settings_table(title, records, population, MAX_FRAME_SIZE, |s| {
        s.max_frame_size
    })
}

/// Table VII: `SETTINGS_MAX_HEADER_LIST_SIZE` distribution.
pub fn table7(records: &[CampaignRow], population: &Population) -> String {
    let title = "TABLE VII — SETTINGS_MAX_HEADER_LIST_SIZE";
    settings_table(title, records, population, MAX_HEADER_LIST_SIZE, |s| {
        s.max_header_list_size
    })
}

/// Figure 2: CDF of `SETTINGS_MAX_CONCURRENT_STREAMS`.
pub fn fig2(records: &[CampaignRow], population: &Population) -> String {
    let samples: Vec<f64> = headers_verdicts(records)
        .filter_map(|v| v.settings.max_concurrent_streams)
        .map(f64::from)
        .collect();
    let ticks = [
        1.0, 3.0, 10.0, 30.0, 100.0, 128.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 100_000.0,
    ];
    let mut out = String::new();
    writeln!(
        out,
        "FIGURE 2 — CDF of SETTINGS_MAX_CONCURRENT_STREAMS ({})",
        population.spec().label
    )
    .unwrap();
    if samples.is_empty() {
        writeln!(
            out,
            "  (no HEADERS-returning site announced SETTINGS_MAX_CONCURRENT_STREAMS)"
        )
        .unwrap();
        return out;
    }
    for (x, f) in crate::stats::cdf_points(&samples, &ticks) {
        writeln!(out, "  x = {:>9}   F(x) = {:.3}", fmt_count(x as u64), f).unwrap();
    }
    writeln!(out, "  sparkline: {}", spark_cdf(&samples, &ticks)).unwrap();
    let below_100 = crate::stats::cdf_at(&samples, 99.0);
    writeln!(
        out,
        "  majority >= 100: {} (paper: \"the majority of web sites use a value >= 100\")",
        below_100 < 0.5
    )
    .unwrap();
    out
}

/// §V-D's tables, D1 to D4, and the D3 connection-scope row (GOAWAY,
/// with or without debug data). D1 lists "no response" last.
#[rustfmt::skip]
pub(crate) fn flow_control_tables(spec: &ExperimentSpec) -> ([Table; 4], Row) {
    use Reaction::{Goaway, GoawayWithDebug, Ignored, RstStream, Unknown};
    use SmallWindowOutcome::{HeadersOnly, NoResponse, OneByteData, ZeroLenData};
    let table = |heading, layout, partition, rows| Table { heading, layout, partition, rows };
    let stream = &spec.zero_update_stream;
    let tables = [
        table(Some("[V-D1] SETTINGS_INITIAL_WINDOW_SIZE = 1:"), [4, 18, 8], true, vec![
            row("1-byte DATA", |v| v.small_window == Some(OneByteData),
                spec.small_window_one_byte),
            row("zero-length DATA", |v| v.small_window == Some(ZeroLenData),
                spec.small_window_zero_len),
            row("no response", |v| matches!(v.small_window, Some(NoResponse | HeadersOnly)),
                spec.small_window_no_response),
        ]),
        table(None, [2, 0, 8], false, vec![
            row("[V-D2] HEADERS under zero window:", |v| v.headers_at_zero_window == Some(true),
                spec.headers_at_zero_window),
        ]),
        table(Some("[V-D3] zero WINDOW_UPDATE on a stream:"), [4, 18, 8], true, vec![
            row("RST_STREAM", |v| v.zero_update_stream == Some(RstStream), stream.rst),
            row("ignored", |v| v.zero_update_stream == Some(Ignored), stream.ignored),
            row("GOAWAY", |v| v.zero_update_stream == Some(Goaway), stream.goaway),
            row("GOAWAY + debug", |v| v.zero_update_stream == Some(GoawayWithDebug),
                stream.goaway_debug),
            row("unknown", |v| v.zero_update_stream == Some(Unknown), None),
        ]),
        table(Some("[V-D4] window increment overflowing 2^31-1:"), [4, 18, 8], false, vec![
            row("connection GOAWAY",
                |v| matches!(v.large_update_conn, Some(Goaway | GoawayWithDebug)),
                spec.large_update_conn_goaway),
            row("stream RST_STREAM", |v| v.large_update_stream == Some(RstStream),
                spec.large_update_stream_rst),
            row("connection unknown", |v| v.large_update_conn == Some(Unknown), None),
            row("stream unknown", |v| v.large_update_stream == Some(Unknown), None),
        ]),
    ];
    let scope = row("connection scope GOAWAY",
        |v| matches!(v.zero_update_conn, Some(Goaway | GoawayWithDebug)),
        spec.zero_update_conn_goaway);
    (tables, scope)
}

/// §V-D: the four flow-control aggregates.
pub fn flow_control(records: &[CampaignRow], population: &Population) -> String {
    let spec = population.spec();
    let scale = population.scale();
    let (tables, scope) = flow_control_tables(spec);
    let mut lists: Vec<&[Row]> = tables.iter().map(|table| &table.rows[..]).collect();
    lists.push(std::slice::from_ref(&scope));
    let (counts, headers) = tally(records, &lists);
    let [d1, d2, d3, d4] = &tables;
    let mut out = String::new();
    writeln!(out, "§V-D — Flow control in the wild ({})", spec.label).unwrap();
    if abstains(&mut out, headers) {
        return out;
    }
    d1.render(&mut out, &counts[0], headers, scale);
    // Under a fault campaign, split the "no response" row into probes that
    // waited out their deadline (timeout-derived) and server quirks seen
    // on a healthy link (quirk-derived). A faultless campaign has no split.
    let faulted = records
        .iter()
        .any(|r| r.report.probe != ProbeStats::default());
    if faulted {
        let (no_response, no_resp) = (&d1.rows[2], counts[0][2]);
        let timeout_derived = records
            .iter()
            .filter(|r| {
                matches!(
                    r.report.probe.outcome,
                    ProbeOutcome::Timeout | ProbeOutcome::GaveUpAfterRetries
                ) && (no_response.holds)(&Verdicts::of(&r.report))
            })
            .count() as u64;
        // A timeout-derived row is by construction also a no-response
        // row; if that ever broke, say so rather than print 0.
        match no_resp.checked_sub(timeout_derived) {
            Some(quirk_derived) => writeln!(
                out,
                "    no-response rows: {timeout_derived} timeout-derived (deadline expired), {quirk_derived} quirk-derived"
            )
            .unwrap(),
            None => writeln!(
                out,
                "    ACCOUNTING ERROR: {timeout_derived} timeout-derived rows exceed the {no_resp} no-response rows observed"
            )
            .unwrap(),
        }
    }
    d2.render(&mut out, &counts[1], headers, scale);
    d3.render(&mut out, &counts[2], headers, scale);
    writeln!(
        out,
        "    connection scope: {} GOAWAY of {} (paper: \"nearly all\")",
        fmt_count(counts[4][0]),
        fmt_count(headers)
    )
    .unwrap();
    d4.render(&mut out, &counts[3], headers, scale);
    out
}

/// §V-E's tables: the Algorithm 1 orderings, then the self-dependency
/// reactions.
#[rustfmt::skip]
pub(crate) fn priority_tables(spec: &ExperimentSpec) -> [Table; 2] {
    use Reaction::{Goaway, GoawayWithDebug, Ignored, RstStream, Unknown};
    let table = |heading, layout, partition, rows| Table { heading, layout, partition, rows };
    let reactions = &spec.self_dependency;
    [
        table(None, [2, 22, 7], false, vec![
            row("last-DATA-frame rule", |v| v.by_last_frame == Some(true), spec.priority_by_last),
            row("first-DATA-frame rule", |v| v.by_first_frame == Some(true),
                spec.priority_by_first),
            row("both rules", |v| v.by_last_frame == Some(true) && v.by_first_frame == Some(true),
                spec.priority_by_both),
        ]),
        table(Some("self-dependent stream reactions:"), [4, 20, 7], true, vec![
            row("RST_STREAM", |v| v.self_dependency == Some(RstStream), reactions.rst),
            row("GOAWAY", |v| matches!(v.self_dependency, Some(Goaway | GoawayWithDebug)),
                reactions.goaway),
            row("ignored", |v| v.self_dependency == Some(Ignored), reactions.ignored),
            row("unknown", |v| v.self_dependency == Some(Unknown), None),
        ]),
    ]
}

/// §V-E: priority orderings and self-dependency reactions.
pub fn priority(records: &[CampaignRow], population: &Population) -> String {
    let spec = population.spec();
    let tables = priority_tables(spec);
    let lists: Vec<&[Row]> = tables.iter().map(|table| &table.rows[..]).collect();
    let (counts, headers) = tally(records, &lists);
    let mut out = String::new();
    writeln!(
        out,
        "§V-E — Priority mechanism in the wild ({})",
        spec.label
    )
    .unwrap();
    if abstains(&mut out, headers) {
        return out;
    }
    for (table, counts) in tables.iter().zip(&counts) {
        table.render(&mut out, counts, headers, population.scale());
    }
    out
}

/// §V-F (counts only; Figure 3 timing lives in `figures`).
pub fn push_adoption(records: &[CampaignRow], population: &Population) -> String {
    let spec = population.spec();
    // A push report exists only where HEADERS came back.
    let push_sites: Vec<&CampaignRow> = records
        .iter()
        .filter(|r| r.report.push.as_ref().is_some_and(|p| p.supported()))
        .collect();
    let mut out = String::new();
    writeln!(out, "§V-F — Server push in the wild ({})", spec.label).unwrap();
    let headers = records.iter().filter(|r| r.report.headers_received).count();
    if abstains(&mut out, headers as u64) {
        return out;
    }
    writeln!(
        out,
        "  sites pushing on the front page: measured {} (paper {} at full scale)",
        push_sites.len(),
        spec.push_sites
    )
    .unwrap();
    for record in push_sites.iter().take(20) {
        let push = record.report.push.as_ref().expect("filtered");
        writeln!(
            out,
            "    {:<34} {} promised objects, {} pushed octets",
            record.report.authority,
            push.promised_paths.len(),
            fmt_count(push.pushed_octets)
        )
        .unwrap();
    }
    out
}

/// Figures 4/5: HPACK compression ratio CDFs for the top five families.
pub fn hpack_figure(records: &[CampaignRow], population: &Population) -> String {
    use webpop::Family;
    let spec = population.spec();
    let figure = if spec.second { "FIGURE 5" } else { "FIGURE 4" };
    let mut out = String::new();
    writeln!(
        out,
        "{figure} — HPACK compression ratio CDFs by server family ({})",
        spec.label
    )
    .unwrap();
    let families = [
        (Family::Gse, "GSE"),
        (Family::Nginx, "nginx"),
        (Family::Tengine, "Tengine"),
        (Family::Litespeed, "litespeed"),
        (Family::IdeaWeb, "ideaweb"),
    ];
    let ticks: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut kept_total = 0usize;
    for (family, label) in families {
        let mut ratios: Vec<f64> = Vec::new();
        let mut filtered = 0usize;
        // An HPACK report exists only where HEADERS came back.
        for r in records.iter().filter(|r| r.family == family) {
            if let Some(h) = &r.report.hpack {
                if h.filtered() {
                    filtered += 1; // the paper's r > 1 cookie filter
                } else {
                    ratios.push(h.ratio());
                }
            }
        }
        kept_total += ratios.len();
        if ratios.is_empty() {
            writeln!(out, "  {label:<10} (no sites at this scale)").unwrap();
            continue;
        }
        writeln!(
            out,
            "  {label:<10} n={:<5} filtered(r>1)={:<4} median={:.3}  P(r<0.3)={:.2}  P(r=1)={:.2}  cdf {}",
            ratios.len(),
            filtered,
            crate::stats::quantile(&ratios, 0.5),
            crate::stats::cdf_at(&ratios, 0.3),
            ratios.iter().filter(|&&r| (r - 1.0).abs() < 1e-9).count() as f64
                / ratios.len() as f64,
            spark_cdf(&ratios, &ticks),
        )
        .unwrap();
    }
    writeln!(
        out,
        "  kept sites across families: {} (paper kept {} of all families)",
        fmt_count(kept_total as u64),
        fmt_count(spec.hpack_sites_kept)
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{headers_records, Campaign};
    use webpop::ExperimentSpec;

    /// Scales exercised by the consistency tests: the paper's own 1.0
    /// plus the fractional scales where independent per-row rounding
    /// used to drift from the rounded column total.
    const SCALES: [f64; 7] = [1.0, 0.5, 0.25, 0.1, 0.04, 0.01, 0.003];

    /// First number after `key` on the first line of `text` containing
    /// `marker`, with thousands separators stripped.
    fn num_after(text: &str, marker: &str, key: &str) -> u64 {
        let line = text
            .lines()
            .find(|l| l.contains(marker))
            .unwrap_or_else(|| panic!("no line matching {marker:?}"));
        let rest = line.split(key).nth(1).unwrap_or_else(|| {
            panic!("no {key:?} on line {line:?}");
        });
        let token = rest.split_whitespace().next().expect("value after key");
        token.replace(',', "").parse().expect("numeric token")
    }

    /// Every value in the table's paper-scale column, in row order.
    fn scaled_column(table: &str) -> Vec<u64> {
        table
            .lines()
            .skip(2) // title + column header
            .filter_map(|l| {
                let mut fields = l.split_whitespace().rev();
                let _paper = fields.next()?;
                Some(fields.next()?.replace(',', "").parse().expect("count"))
            })
            .collect()
    }

    #[test]
    fn upscaled_rows_sum_exactly_when_rows_partition_the_total() {
        let counts = [317u64, 204, 96, 83];
        let total: u64 = counts.iter().sum();
        for scale in SCALES {
            let shares = upscaled_rows(&counts, total, scale);
            assert_eq!(
                shares.iter().sum::<u64>(),
                upscale(total, scale),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn upscaled_rows_leave_room_for_the_unlisted_remainder() {
        let counts = [317u64, 204, 96];
        let total = 700u64; // 83 sites not listed by the table
        for scale in SCALES {
            let shares = upscaled_rows(&counts, total, scale);
            let listed: u64 = shares.iter().sum();
            let column_total = upscale(total, scale);
            assert!(listed <= column_total, "scale {scale}");
            // The implicit remainder row absorbs exactly the rest.
            let full = upscaled_rows(&[317, 204, 96, 83], total, scale);
            assert_eq!(full.iter().sum::<u64>(), column_total, "scale {scale}");
            // Apportionment stays within one unit of naive rounding.
            for (share, &count) in shares.iter().zip(&counts) {
                let naive = upscale(count, scale);
                assert!(share.abs_diff(naive) <= 1, "scale {scale}");
            }
        }
    }

    #[test]
    fn settings_table_scaled_column_sums_to_the_upscaled_headers_total() {
        // Table V's rows cover every generated value, so its paper-scale
        // column must sum to the upscaled headers total exactly — the
        // consistency independent per-row rounding could not guarantee.
        for scale in [0.05, 0.01, 0.003] {
            let population = Population::new(ExperimentSpec::first(), scale);
            let records = Campaign::new(&population, 2).scan();
            let headers = headers_records(&records).len();
            let column = scaled_column(&table5(&records, &population));
            assert_eq!(
                column.iter().sum::<u64>(),
                upscale(headers as u64, scale),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn faulted_no_response_split_accounts_for_every_row() {
        let population = Population::new(ExperimentSpec::first(), 0.01);
        let records = Campaign {
            faults: h2fault::FaultProfile::flaky(),
            seed: 7,
            ..Campaign::new(&population, 2)
        }
        .scan();
        let report = flow_control(&records, &population);
        assert!(
            !report.contains("ACCOUNTING ERROR"),
            "timeout-derived rows exceeded observed no-response rows:\n{report}"
        );
        assert!(
            report.contains("no-response rows:"),
            "faulted split missing"
        );
        let no_resp = num_after(&report, "no response", "measured");
        let timeout_derived = num_after(&report, "no-response rows:", "no-response rows:");
        let quirk_derived = num_after(&report, "no-response rows:", "(deadline expired),");
        assert_eq!(timeout_derived + quirk_derived, no_resp);
    }

    #[test]
    fn fig2_abstains_when_no_site_announced_max_concurrent_streams() {
        let population = Population::new(ExperimentSpec::first(), 0.01);
        let site = population.site(0);
        let mut report = h2scope::H2Scope::new().survey(&site.target());
        assert!(report.headers_received);
        report.settings.max_concurrent_streams = None;
        let family = site.family;
        let rendered = fig2(
            &[CampaignRow {
                index: 0,
                family,
                report,
            }],
            &population,
        );
        assert!(
            rendered.contains("(no HEADERS-returning site announced"),
            "{rendered}"
        );
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(!rendered.contains("majority"), "{rendered}");
    }

    #[test]
    fn section_v_tables_abstain_when_no_site_returned_headers() {
        let population = Population::new(ExperimentSpec::first(), 0.01);
        let site = population.site(0);
        let survey = h2scope::H2Scope::new().survey(&site.target());
        assert!(survey.headers_received);
        // What the survey funnel keeps of a site whose HEADERS never came.
        let report = h2scope::SiteReport {
            headers_received: false,
            server_name: None,
            flow_control: None,
            priority: None,
            push: None,
            hpack: None,
            ..survey
        };
        let family = site.family;
        let records = [CampaignRow {
            index: 0,
            family,
            report,
        }];
        let sections: [fn(&[CampaignRow], &Population) -> String; 7] = [
            table4,
            table5,
            table6,
            table7,
            flow_control,
            priority,
            push_adoption,
        ];
        for section in sections {
            let rendered = section(&records, &population);
            assert!(
                rendered.contains("(no HEADERS-returning site was surveyed)"),
                "{rendered}"
            );
            // The title, then the abstention: no row of zeros.
            assert_eq!(rendered.lines().count(), 2, "{rendered}");
        }
    }

    /// Table III × Table IV: every §V-D and §V-E row evaluated on the
    /// `expected` verdicts of each Table IV family's profile, weighted by
    /// the family's site count. Tail sites split in equal thirds over the
    /// three tail profiles. Rows whose prediction is far from the paper
    /// are what server identity alone does not explain.
    fn predicted(spec: &ExperimentSpec) -> Vec<(String, u64, u64)> {
        use h2scope::expected::expected;
        use webpop::marginals::FAMILIES;
        use webpop::Family;
        let site = h2server::SiteSpec::benchmark();
        // Weights in thirds of a site, so that a tail third stays whole.
        let mut weighted: Vec<(Verdicts, u64)> = Vec::new();
        for &(family, exp1, exp2) in FAMILIES {
            let sites = if spec.second { exp2 } else { exp1 };
            let kinds = if family == Family::Tail { 0..3 } else { 0..1 };
            let weight = 3 * sites / kinds.end;
            for kind in kinds {
                let behavior = family.profile(kind).behavior;
                weighted.push((expected(&behavior, &site), weight));
            }
        }
        let ([d1, d2, mut d3, d4], scope) = flow_control_tables(spec);
        d3.rows.push(scope);
        let [orderings, self_dependency] = priority_tables(spec);
        let sections = [
            ("[V-D1]", d1),
            ("", d2),
            ("[V-D3]", d3),
            ("[V-D4]", d4),
            ("[V-E]", orderings),
            ("[V-E] self-dependency", self_dependency),
        ];
        sections
            .into_iter()
            .flat_map(|(section, table)| table.rows.into_iter().map(move |row| (section, row)))
            .filter_map(|(section, row)| {
                let thirds: u64 = weighted
                    .iter()
                    .filter(|(verdicts, _)| (row.holds)(verdicts))
                    .map(|(_, weight)| weight)
                    .sum();
                let label = format!("{section} {}", row.label.trim_end_matches(':'));
                Some((label, (thirds + 1) / 3, row.paper?))
            })
            .collect()
    }

    #[test]
    fn server_identity_predicts_the_section_v_counts() {
        let first = predicted(&ExperimentSpec::first());
        let second = predicted(&ExperimentSpec::second());
        let mut table = format!(
            "{:<40}{:>9}{:>8}{:>9}{:>8}\n",
            "row", "exp. 1", "paper", "exp. 2", "paper"
        );
        for ((label, p1, paper1), (_, p2, paper2)) in first.iter().zip(&second) {
            let [p1, paper1, p2, paper2] = [p1, paper1, p2, paper2].map(|&n| fmt_count(n));
            let label = label.trim_start();
            writeln!(table, "{label:<40}{p1:>9}{paper1:>8}{p2:>9}{paper2:>8}").unwrap();
        }
        let pinned = "\
row                                        exp. 1   paper   exp. 2   paper\n\
[V-D1] 1-byte DATA                         31,753  37,525   50,673  44,204\n\
[V-D1] zero-length DATA                         0   2,433        0   8,056\n\
[V-D1] no response                         12,637   4,432   13,626  12,039\n\
[V-D2] HEADERS under zero window           31,753  17,191   50,673  23,834\n\
[V-D3] RST_STREAM                          26,346  23,673   28,241  26,156\n\
[V-D3] ignored                             16,153  20,660   33,715  37,939\n\
[V-D3] GOAWAY                               1,891      31    2,343     162\n\
[V-D3] GOAWAY + debug                           0      26        0      42\n\
[V-D3] connection scope GOAWAY             28,237  44,200   30,584  64,000\n\
[V-D4] connection GOAWAY                   44,390  40,567   64,299  62,668\n\
[V-D4] stream RST_STREAM                   44,390  36,619   64,299  44,057\n\
[V-E] last-DATA-frame rule                 15,600   1,147   16,958   2,187\n\
[V-E] first-DATA-frame rule                15,600      46   16,958     117\n\
[V-E] both rules                           15,600      38   16,958     111\n\
[V-E] self-dependency RST_STREAM           27,972  18,237   45,987  53,379\n\
[V-E] self-dependency GOAWAY                3,781  15,692    4,686   6,552\n\
[V-E] self-dependency ignored              12,637  10,461   13,626   4,368\n\
";
        assert_eq!(table, pinned, "\n{table}");
    }
}
