//! Testbed generators: Table III (the server characterization matrix) and
//! the §V-A MAX_CONCURRENT_STREAMS enforcement experiment.

use std::fmt::Write as _;

use h2scope::expected::Verdicts;
use h2scope::probes::flow_control::SmallWindowOutcome::{NoResponse, OneByteData};
use h2scope::probes::{multiplexing, ping};
use h2scope::{H2Scope, Reaction, Target};
use h2server::{ServerProfile, SiteSpec};

/// One server's Table III column as measured: the survey's verdicts plus
/// the two probes the paper runs only in its testbed.
struct Column {
    server: String,
    version: String,
    verdicts: Verdicts,
    multiplexing: bool,
    ping: bool,
}

impl Column {
    /// Surveys `profile` serving [`SiteSpec::testbed`], then runs the
    /// multiplexing and PING probes against it.
    fn measure(profile: ServerProfile) -> Column {
        let target = Target::testbed(profile, SiteSpec::testbed());
        Column {
            server: target.profile.name.clone(),
            version: target.profile.version.clone(),
            verdicts: Verdicts::of(&H2Scope::new().survey(&target)),
            multiplexing: multiplexing::probe(&target, 4),
            ping: ping::probe(&target, 5).supported,
        }
    }

    /// The title line and one line per Table III row.
    fn render(&self) -> String {
        let mut out = format!("TABLE III column — {} {}\n", self.server, self.version);
        for row in TABLE_III_EXPECTED {
            writeln!(out, "{:<42}{}", row.row, (row.measured)(self)).unwrap();
        }
        out
    }
}

/// One row of the paper's Table III.
struct TableIiiExpectation {
    /// Row label as printed.
    row: &'static str,
    /// The paper's cell per server column (Nginx, LiteSpeed, H2O,
    /// nghttpd, Tengine, Apache).
    cells: [&'static str; 6],
    /// The measured cell of a column.
    measured: fn(&Column) -> &'static str,
}

/// A verdict's cell, or `unknown` where the survey did not reach it (no
/// HTTP/2, or no HEADERS came back).
fn known<T>(verdict: Option<T>, cell: fn(T) -> &'static str) -> &'static str {
    verdict.map_or("unknown", cell)
}

fn support(yes: bool) -> &'static str {
    if yes {
        "support"
    } else {
        "no support"
    }
}

fn yes_no(yes: bool) -> &'static str {
    if yes {
        "yes"
    } else {
        "no"
    }
}

fn reaction_cell(reaction: Reaction) -> &'static str {
    match reaction {
        Reaction::Ignored => "ignore",
        Reaction::RstStream => "RST_STREAM",
        Reaction::Goaway | Reaction::GoawayWithDebug => "GOAWAY",
        Reaction::Unknown => "unknown",
    }
}

const fn row(
    row: &'static str,
    cells: [&'static str; 6],
    measured: fn(&Column) -> &'static str,
) -> TableIiiExpectation {
    TableIiiExpectation {
        row,
        cells,
        measured,
    }
}

/// Every row of the paper's Table III. "support*" under Header
/// Compression: HPACK is spoken, but response headers are never indexed.
#[rustfmt::skip]
const TABLE_III_EXPECTED: &[TableIiiExpectation] = &[
    row("ALPN", ["support"; 6], |c| support(c.verdicts.alpn_h2)),
    row("NPN", ["support", "support", "support", "support", "support", "no support"],
        |c| support(c.verdicts.npn_h2)),
    row("Request Multiplexing", ["support"; 6], |c| support(c.multiplexing)),
    row("Flow Control on DATA Frames", ["yes"; 6],
        |c| known(c.verdicts.small_window, |o| yes_no(matches!(o, OneByteData | NoResponse)))),
    row("Flow Control on HEADERS Frames", ["no", "yes", "no", "no", "no", "no"],
        |c| known(c.verdicts.headers_at_zero_window, |sent| yes_no(!sent))),
    row("Zero Window Update on stream",
        ["ignore", "RST_STREAM", "RST_STREAM", "GOAWAY", "ignore", "GOAWAY"],
        |c| known(c.verdicts.zero_update_stream, reaction_cell)),
    row("Zero Window Update on connection",
        ["ignore", "GOAWAY", "GOAWAY", "GOAWAY", "ignore", "GOAWAY"],
        |c| known(c.verdicts.zero_update_conn, reaction_cell)),
    row("Large Window Update (Connection)", ["GOAWAY"; 6],
        |c| known(c.verdicts.large_update_conn, reaction_cell)),
    row("Large Window Update (Stream)", ["RST_STREAM"; 6],
        |c| known(c.verdicts.large_update_stream, reaction_cell)),
    row("Server Push", ["no", "no", "yes", "yes", "no", "yes"],
        |c| known(c.verdicts.push, yes_no)),
    row("Priority Mechanism Testing (Algorithm 1)",
        ["fail", "fail", "pass", "pass", "fail", "pass"],
        |c| known(c.verdicts.by_last_frame, |pass| if pass { "pass" } else { "fail" })),
    row("Self-dependent Stream",
        ["RST_STREAM", "ignore", "GOAWAY", "GOAWAY", "RST_STREAM", "GOAWAY"],
        |c| known(c.verdicts.self_dependency, reaction_cell)),
    row("Header Compression",
        ["support*", "support", "support", "support", "support*", "support"],
        |c| known(c.verdicts.hpack_indexes_responses,
                  |yes| if yes { "support" } else { "support*" })),
    row("HTTP/2 PING", ["support"; 6], |c| support(c.ping)),
];

/// Regenerates Table III and appends a verification footer comparing every
/// measured cell with the paper.
pub fn table3() -> String {
    let columns: Vec<Column> = ServerProfile::testbed()
        .into_iter()
        .map(Column::measure)
        .collect();
    let mut out = String::new();
    writeln!(
        out,
        "TABLE III — Characterizing popular HTTP/2 web servers in testbed"
    )
    .unwrap();
    write!(out, "{:<42}", "").unwrap();
    for c in &columns {
        write!(out, "{:<13}", c.server).unwrap();
    }
    writeln!(out).unwrap();
    let mut mismatches = 0;
    for expectation in TABLE_III_EXPECTED {
        write!(out, "{:<42}", expectation.row).unwrap();
        for (c, expected) in columns.iter().zip(expectation.cells.iter()) {
            let measured = (expectation.measured)(c);
            let marker = if measured == *expected {
                ""
            } else {
                mismatches += 1;
                "!"
            };
            write!(out, "{:<13}", format!("{measured}{marker}")).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "\nverification vs paper: {} ({} cells, {} mismatches)",
        if mismatches == 0 { "MATCH" } else { "MISMATCH" },
        TABLE_III_EXPECTED.len() * 6,
        mismatches
    )
    .unwrap();
    out
}

/// `repro probe <profile>`: one profile's Table III column — the rows and
/// cells of [`table3`], with no paper verification, since only the six
/// testbed profiles have paper values.
pub fn table3_column(profile: ServerProfile) -> String {
    Column::measure(profile).render()
}

/// §V-A: announce MAX_CONCURRENT_STREAMS of 0 and 1 on Nginx/Tengine and
/// watch the RST_STREAM enforcement.
pub fn concurrency_experiment() -> String {
    use h2scope::ProbeConn;
    use h2wire::{Frame, SettingId, Settings};

    let mut out = String::new();
    writeln!(
        out,
        "§V-A — MAX_CONCURRENT_STREAMS enforcement (Nginx & Tengine)"
    )
    .unwrap();
    for base in [ServerProfile::nginx(), ServerProfile::tengine()] {
        for mcs in [0u32, 1] {
            let mut profile = base.clone();
            profile.behavior.announced = Settings::new()
                .with(SettingId::MaxConcurrentStreams, mcs)
                .with(SettingId::InitialWindowSize, 65_535);
            let target = h2scope::Target::testbed(profile, SiteSpec::benchmark());
            let mut conn = ProbeConn::establish(&target, Settings::new(), 0x5a01);
            conn.exchange();
            conn.get(1, "/big/1", None);
            if mcs == 1 {
                conn.get(3, "/big/2", None);
            }
            let frames = conn.exchange();
            let rsts: Vec<u32> = frames
                .iter()
                .filter_map(|tf| match &tf.frame {
                    Frame::RstStream(r) => Some(r.stream_id.value()),
                    _ => None,
                })
                .collect();
            writeln!(
                out,
                "  {:<8} MCS={mcs}: RST_STREAM on streams {rsts:?} (paper: {})",
                base.name,
                if mcs == 0 {
                    "every new request reset"
                } else {
                    "second request reset"
                }
            )
            .unwrap();
        }
    }
    out
}

/// Methodology ablation: the naive priority check vs Algorithm 1 across
/// the testbed — demonstrating why the paper's §III-C preparation steps
/// (drain the connection window, RST the throwaway streams, reprioritize
/// while blocked) are load-bearing.
pub fn priority_ablation() -> String {
    use h2scope::expected::expected;
    use h2scope::probes::priority::{algorithm1, naive_order_check};
    let mut out = String::new();
    writeln!(out, "Ablation — naive ordering check vs Algorithm 1").unwrap();
    writeln!(
        out,
        "  {:<10} {:>18} {:>18} {:>10}",
        "server", "naive verdict", "Algorithm 1", "truth"
    )
    .unwrap();
    let mut naive_errors = 0;
    let mut algo_errors = 0;
    for profile in ServerProfile::testbed() {
        let site = SiteSpec::benchmark();
        let truth = expected(&profile.behavior, &site).by_last_frame == Some(true);
        let target = Target::testbed(profile.clone(), site);
        let naive = naive_order_check(&target).by_last_frame;
        let algo = algorithm1(&target).by_last_frame;
        if naive != truth {
            naive_errors += 1;
        }
        if algo != truth {
            algo_errors += 1;
        }
        writeln!(
            out,
            "  {:<10} {:>18} {:>18} {:>10}",
            profile.name,
            if naive { "pass" } else { "fail" },
            if algo { "pass" } else { "fail" },
            if truth { "supports" } else { "fcfs" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "  misclassifications: naive {naive_errors}/6, Algorithm 1 {algo_errors}/6 \
         (the drain/RST/reprioritize preparation is what makes the probe sound)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shows_algorithm1_strictly_better() {
        let rendered = priority_ablation();
        assert!(rendered.contains("Algorithm 1 0/6"), "{rendered}");
        assert!(
            !rendered.contains("naive 0/6"),
            "naive must misclassify: {rendered}"
        );
    }

    #[test]
    fn table3_matches_the_paper_cell_for_cell() {
        let rendered = table3();
        assert!(
            rendered.contains("verification vs paper: MATCH"),
            "{rendered}"
        );
    }

    #[test]
    fn each_testbed_column_is_its_table3_column() {
        let table = table3();
        // Below the title and the server-name line, 42 columns of row
        // label, then 13 per server.
        let rows: Vec<&str> = table.lines().skip(2).take(14).collect();
        for (i, profile) in ServerProfile::testbed().into_iter().enumerate() {
            let expected: Vec<String> = rows
                .iter()
                .map(|row| {
                    let cell = row.get(42 + 13 * i..).unwrap_or_default();
                    format!(
                        "{}{}",
                        &row[..42],
                        cell.get(..13).unwrap_or(cell).trim_end()
                    )
                })
                .collect();
            let column = table3_column(profile);
            assert_eq!(column.lines().skip(1).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn every_profile_column_is_its_expected_column() {
        use h2scope::expected::expected;
        for (name, make) in ServerProfile::all() {
            let profile = make();
            let b = &profile.behavior;
            let predicted = Column {
                server: profile.name.clone(),
                version: profile.version.clone(),
                verdicts: expected(b, &SiteSpec::testbed()),
                // Every server the engine models multiplexes.
                multiplexing: true,
                ping: true,
            };
            assert_eq!(table3_column(profile), predicted.render(), "{name}");
        }
    }

    #[test]
    fn concurrency_experiment_resets_correct_streams() {
        let rendered = concurrency_experiment();
        // MCS=0 lines reset stream 1; MCS=1 lines reset stream 3.
        assert!(
            rendered.contains("MCS=0: RST_STREAM on streams [1]"),
            "{rendered}"
        );
        assert!(
            rendered.contains("MCS=1: RST_STREAM on streams [3]"),
            "{rendered}"
        );
    }
}
