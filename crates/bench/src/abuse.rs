//! The §VI abuse matrices (`repro abuse`), rendered as text and as
//! `ABUSE_campaign.json`.
//!
//! Two grids, both over the six testbed profiles plus the RFC reference:
//! the robustness matrix (Table III methodology extended to abuse
//! hardening — the reaction when each abuse bound is crossed) and the
//! attack matrix (every [`h2attack::AttackVector`] run once against
//! every profile). Both are pure functions of the profiles, so the
//! output takes no seed, scale or thread count.

use std::fmt::Write as _;

use h2attack::{AttackRow, RobustnessRow};
use h2obs::json;
use h2scope::Reaction;

fn reaction_cell(reaction: Reaction) -> &'static str {
    match reaction {
        Reaction::Ignored => "-",
        Reaction::RstStream => "RST_STREAM",
        Reaction::Goaway => "GOAWAY",
        Reaction::GoawayWithDebug => "GOAWAY+debug",
        Reaction::Unknown => "unknown",
    }
}

/// Renders the §V-style robustness matrix: one row per profile, one
/// column per abuse bound, the measured reaction in each cell.
pub fn render_robustness(rows: &[RobustnessRow]) -> String {
    let mut out = String::new();
    out.push_str("Robustness matrix (reaction when the abuse bound is crossed)\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "Server", "rst-rate", "settings", "continuation", "stall", "header-list", "defenses"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}/5",
            row.server,
            reaction_cell(row.report.rst_rate),
            reaction_cell(row.report.settings_rate),
            reaction_cell(row.report.continuation_bound),
            reaction_cell(row.report.stalled_stream),
            reaction_cell(row.report.header_list_bound),
            row.defenses(),
        );
    }
    out
}

/// Renders the attack matrix: one row per vector, one column per
/// profile, the server's reaction in each cell; each row ends with how
/// many servers pushed back and the worst cost any of them paid.
pub fn render_attacks(rows: &[AttackRow]) -> String {
    let mut out = String::new();
    out.push_str("Attacks by vector (reaction per server; defended = server pushed back)\n");
    let _ = write!(out, "  {:<18}", "Vector");
    for (server, _) in rows.first().map_or(&[][..], |row| &row.cells[..]) {
        let _ = write!(out, " {server:>12}");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(out, "  {:<18}", row.vector.name());
        for (_, report) in &row.cells {
            let _ = write!(out, " {:>12}", reaction_cell(report.reaction));
        }
        let unit = row.cells.first().map_or("", |(_, r)| r.cost_unit);
        let _ = writeln!(
            out,
            "  defended {}/{}  worst cost {} {unit}",
            row.defended(),
            row.cells.len(),
            row.worst_cost(),
        );
    }
    out
}

/// The full stdout report: the robustness matrix, then the attack matrix.
pub fn render_report(robustness: &[RobustnessRow], attacks: &[AttackRow]) -> String {
    format!(
        "{}\n{}",
        render_robustness(robustness),
        render_attacks(attacks)
    )
}

/// Renders the machine-readable `ABUSE_campaign.json` document (schema
/// `h2attack-v2`) with a fixed key order.
pub fn render_json(robustness: &[RobustnessRow], attacks: &[AttackRow]) -> String {
    json::document(|doc| {
        doc.str("schema", "h2attack-v2")
            .lines("robustness", |a| {
                for row in robustness {
                    a.object(|o| {
                        o.str("server", &row.server)
                            .str("rst_rate", row.report.rst_rate)
                            .str("settings_rate", row.report.settings_rate)
                            .str("continuation", row.report.continuation_bound)
                            .str("stall", row.report.stalled_stream)
                            .str("header_list", row.report.header_list_bound)
                            .num("defenses", row.defenses());
                    });
                }
            })
            .lines("vectors", |a| {
                for row in attacks {
                    a.object(|o| {
                        o.str("vector", row.vector.name()).lines("cells", |cells| {
                            for (server, r) in &row.cells {
                                cells.object(|o| {
                                    o.str("server", server)
                                        .str("reaction", r.reaction)
                                        .num("defended", r.defended)
                                        .num("server_cost", r.server_cost)
                                        .str("cost_unit", r.cost_unit)
                                        .num("attacker_frames", r.attacker_frames)
                                        .num("attacker_octets", r.attacker_octets)
                                        .num("amplification", r.amplification);
                                });
                            }
                        });
                    });
                }
            });
    })
}
