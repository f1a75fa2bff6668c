//! Testbed generators: Table III (the server characterization matrix) and
//! the §V-A MAX_CONCURRENT_STREAMS enforcement experiment.

use std::fmt::Write as _;

use h2scope::probes::flow_control::SmallWindowOutcome;
use h2scope::{H2Scope, Reaction, ServerCharacterization, Target};
use h2server::{ServerProfile, SiteSpec};

/// One row of the paper's Table III.
pub struct TableIiiExpectation {
    /// Row label as printed.
    pub row: &'static str,
    /// The paper's cell per server column (Nginx, LiteSpeed, H2O,
    /// nghttpd, Tengine, Apache).
    pub cells: [&'static str; 6],
    /// The measured cell of a characterization.
    pub measured: fn(&ServerCharacterization) -> &'static str,
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

/// Every row of the paper's Table III.
pub const TABLE_III_EXPECTED: &[TableIiiExpectation] = &[
    TableIiiExpectation {
        row: "ALPN",
        cells: ["support"; 6],
        measured: |c| support(c.negotiation.alpn_h2),
    },
    TableIiiExpectation {
        row: "NPN",
        cells: [
            "support",
            "support",
            "support",
            "support",
            "support",
            "no support",
        ],
        measured: |c| support(c.negotiation.npn_h2),
    },
    TableIiiExpectation {
        row: "Request Multiplexing",
        cells: ["support"; 6],
        measured: |c| support(c.multiplexing.parallel),
    },
    TableIiiExpectation {
        row: "Flow Control on DATA Frames",
        cells: ["yes"; 6],
        measured: |c| {
            yes_no(matches!(
                c.flow_control.small_window,
                SmallWindowOutcome::OneByteData | SmallWindowOutcome::NoResponse
            ))
        },
    },
    TableIiiExpectation {
        row: "Flow Control on HEADERS Frames",
        cells: ["no", "yes", "no", "no", "no", "no"],
        measured: |c| yes_no(!c.flow_control.headers_at_zero_window),
    },
    TableIiiExpectation {
        row: "Zero Window Update on stream",
        cells: [
            "ignore",
            "RST_STREAM",
            "RST_STREAM",
            "GOAWAY",
            "ignore",
            "GOAWAY",
        ],
        measured: |c| reaction_cell(c.flow_control.zero_update_stream),
    },
    TableIiiExpectation {
        row: "Zero Window Update on connection",
        cells: ["ignore", "GOAWAY", "GOAWAY", "GOAWAY", "ignore", "GOAWAY"],
        measured: |c| reaction_cell(c.flow_control.zero_update_conn),
    },
    TableIiiExpectation {
        row: "Large Window Update (Connection)",
        cells: ["GOAWAY"; 6],
        measured: |c| reaction_cell(c.flow_control.large_update_conn),
    },
    TableIiiExpectation {
        row: "Large Window Update (Stream)",
        cells: ["RST_STREAM"; 6],
        measured: |c| reaction_cell(c.flow_control.large_update_stream),
    },
    TableIiiExpectation {
        row: "Server Push",
        cells: ["no", "no", "yes", "yes", "no", "yes"],
        measured: |c| yes_no(c.push.supported),
    },
    TableIiiExpectation {
        row: "Priority Mechanism Testing (Algorithm 1)",
        cells: ["fail", "fail", "pass", "pass", "fail", "pass"],
        measured: |c| if c.priority.passes() { "pass" } else { "fail" },
    },
    TableIiiExpectation {
        row: "Self-dependent Stream",
        cells: [
            "RST_STREAM",
            "ignore",
            "GOAWAY",
            "GOAWAY",
            "RST_STREAM",
            "GOAWAY",
        ],
        measured: |c| reaction_cell(c.priority.self_dependency),
    },
    TableIiiExpectation {
        row: "Header Compression",
        cells: [
            "support*", "support", "support", "support", "support*", "support",
        ],
        measured: |c| {
            if (c.hpack.ratio - 1.0).abs() < 1e-9 {
                "support*"
            } else {
                "support"
            }
        },
    },
    TableIiiExpectation {
        row: "HTTP/2 PING",
        cells: ["support"; 6],
        measured: |c| support(c.ping.supported),
    },
];

/// Characterizes each of `profiles` (one H2Scope run per Table III column).
pub fn characterize(profiles: Vec<ServerProfile>) -> Vec<ServerCharacterization> {
    let scope = H2Scope::new();
    profiles
        .into_iter()
        .map(|profile| {
            // The push row needs a site with a manifest; everything else
            // uses the benchmark site. Run characterize on the benchmark
            // and overwrite the push verdict from a manifest-bearing site.
            let report =
                scope.characterize(&Target::testbed(profile.clone(), SiteSpec::benchmark()));
            let push = h2scope::probes::push::probe(
                &Target::testbed(profile, SiteSpec::page_with_assets(3, 2_000)),
                &["/"],
            );
            ServerCharacterization { push, ..report }
        })
        .collect()
}

/// Regenerates Table III and appends a verification footer comparing every
/// measured cell with the paper.
pub fn table3() -> String {
    let characterizations = characterize(ServerProfile::testbed());
    let mut out = String::new();
    writeln!(
        out,
        "TABLE III — Characterizing popular HTTP/2 web servers in testbed"
    )
    .unwrap();
    write!(out, "{:<42}", "").unwrap();
    for c in &characterizations {
        write!(out, "{:<13}", c.server).unwrap();
    }
    writeln!(out).unwrap();
    let mut mismatches = 0;
    for expectation in TABLE_III_EXPECTED {
        write!(out, "{:<42}", expectation.row).unwrap();
        for (c, expected) in characterizations.iter().zip(expectation.cells.iter()) {
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
    let mut out = String::new();
    for c in characterize(vec![profile]) {
        writeln!(out, "TABLE III column — {} {}", c.server, c.version).unwrap();
        for row in TABLE_III_EXPECTED {
            writeln!(out, "{:<42}{}", row.row, (row.measured)(&c)).unwrap();
        }
    }
    out
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
            profile.behavior.zero_window_then_update = None;
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
        let truth = profile.behavior.priority_mode.passes_table_iii();
        let target = h2scope::Target::testbed(profile.clone(), SiteSpec::benchmark());
        let naive = naive_order_check(&target).by_last_frame;
        let algo = algorithm1(&target).passes();
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
