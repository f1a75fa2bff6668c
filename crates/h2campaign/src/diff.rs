//! The longitudinal diff engine: everything the paper's Jul-2016 →
//! Jan-2017 comparison says, recomputed from two persisted campaign
//! records instead of in-memory scan state.
//!
//! The paper ran its wild scan twice, six months apart, and reported
//! (a) how adoption counts moved (§V-B1), (b) how the population churned
//! (new h2 sites appearing), and (c) how individual servers' behaviors
//! changed between campaigns (e.g. the Tengine → Tengine/Aserver fleet
//! rename, LiteSpeed's flow-control fix). [`diff_records`] reproduces
//! all three from disk alone: records are joined on the stable site
//! identity (`site-<rank>.top1m`), so a site keeps its row across
//! campaign generations even when its server family or features change.

use std::fmt::Write as _;

use h2scope::expected::Verdicts;

use crate::record::{CampaignRow, StoredRecord};

/// One adoption counter measured in both campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdoptionDelta {
    /// What is being counted.
    pub name: &'static str,
    /// Count in the first (older) record.
    pub a: u64,
    /// Count in the second (newer) record.
    pub b: u64,
}

/// Site-level churn of one boolean feature among the common sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The feature.
    pub name: &'static str,
    /// Sites where the feature was absent in A and present in B.
    pub gained: u64,
    /// Sites where the feature was present in A and absent in B.
    pub lost: u64,
    /// Sites where the feature was present in both.
    pub stable: u64,
}

/// The full longitudinal comparison of two campaign records.
#[derive(Debug, Clone)]
pub struct CampaignDiff {
    /// Label of the older record.
    pub a_label: String,
    /// Label of the newer record.
    pub b_label: String,
    /// Scale of the older record.
    pub a_scale: f64,
    /// Scale of the newer record.
    pub b_scale: f64,
    /// Row counts of the two records.
    pub a_sites: u64,
    /// Row count of the newer record.
    pub b_sites: u64,
    /// Sites present in both records (joined on authority).
    pub common: u64,
    /// Sites only in the newer record (new h2 adopters).
    pub appeared: Vec<String>,
    /// Sites only in the older record (dropped out of h2).
    pub disappeared: Vec<String>,
    /// Adoption counters side by side.
    pub adoption: Vec<AdoptionDelta>,
    /// Per-feature churn among common sites.
    pub transitions: Vec<Transition>,
    /// Common sites whose generated server family changed.
    pub family_flips: u64,
}

/// A feature predicate over one site's verdicts.
type Feature = fn(&Verdicts) -> bool;

/// The boolean feature vector the transition analysis tracks, in render
/// order. Kept in one place so counts and transitions can't drift apart.
const FEATURES: [(&str, Feature); 5] = [
    ("NPN h2", |v| v.npn_h2),
    ("ALPN h2", |v| v.alpn_h2),
    ("HEADERS returned", |v| v.headers_received),
    ("server push", |v| v.push == Some(true)),
    ("priority (last-frame)", |v| v.by_last_frame == Some(true)),
];

/// Which tracked features each row exhibits, in [`FEATURES`] order.
fn features(rows: &[CampaignRow]) -> Vec<[bool; FEATURES.len()]> {
    rows.iter()
        .map(|row| {
            let verdicts = Verdicts::of(&row.report);
            FEATURES.map(|(_, f)| f(&verdicts))
        })
        .collect()
}

/// How many rows exhibit each feature.
fn tally(features: &[[bool; FEATURES.len()]]) -> Vec<u64> {
    (0..FEATURES.len())
        .map(|i| features.iter().filter(|has| has[i]).count() as u64)
        .collect()
}

/// The feature labels of [`feature_counts`], in the same order.
pub fn feature_names() -> Vec<&'static str> {
    FEATURES.iter().map(|(name, _)| *name).collect()
}

/// Counts, per tracked feature, how many rows exhibit it. This is the
/// adoption table the paper reports; exposed so `repro serve` can
/// regenerate it from an in-memory record without rescanning.
pub fn feature_counts(rows: &[CampaignRow]) -> Vec<u64> {
    tally(&features(rows))
}

/// Site authority → row position: the join index of [`diff_records`].
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only join index, never iterated: every output list walks the \
              records' rows in index order"
)]
type SiteIndex<'r> = std::collections::HashMap<&'r str, usize>;

/// Joins two records on site identity and computes the longitudinal
/// comparison. Records may come from different campaign generations and
/// even different scales — identity is the site's rank hostname.
pub fn diff_records(a: &StoredRecord, b: &StoredRecord) -> CampaignDiff {
    let index_a: SiteIndex = a
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| (row.report.authority.as_str(), i))
        .collect();
    let index_b: SiteIndex = b
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| (row.report.authority.as_str(), i))
        .collect();

    let mut appeared: Vec<String> = b
        .rows
        .iter()
        .filter(|row| !index_a.contains_key(row.report.authority.as_str()))
        .map(|row| row.report.authority.clone())
        .collect();
    appeared.sort();
    let mut disappeared: Vec<String> = a
        .rows
        .iter()
        .filter(|row| !index_b.contains_key(row.report.authority.as_str()))
        .map(|row| row.report.authority.clone())
        .collect();
    disappeared.sort();

    let features_a = features(&a.rows);
    let features_b = features(&b.rows);
    let counts_a = tally(&features_a);
    let counts_b = tally(&features_b);
    let adoption = FEATURES
        .iter()
        .zip(counts_a.iter().zip(&counts_b))
        .map(|((name, _), (&ca, &cb))| AdoptionDelta { name, a: ca, b: cb })
        .collect();

    let mut common = 0u64;
    let mut family_flips = 0u64;
    let mut transitions: Vec<Transition> = FEATURES
        .iter()
        .map(|(name, _)| Transition {
            name,
            gained: 0,
            lost: 0,
            stable: 0,
        })
        .collect();
    for (row_a, has_a) in a.rows.iter().zip(&features_a) {
        let Some(&j) = index_b.get(row_a.report.authority.as_str()) else {
            continue;
        };
        common += 1;
        if row_a.family != b.rows[j].family {
            family_flips += 1;
        }
        for ((&in_a, &in_b), t) in has_a.iter().zip(&features_b[j]).zip(&mut transitions) {
            match (in_a, in_b) {
                (false, true) => t.gained += 1,
                (true, false) => t.lost += 1,
                (true, true) => t.stable += 1,
                (false, false) => {}
            }
        }
    }

    CampaignDiff {
        a_label: a.meta.label.clone(),
        b_label: b.meta.label.clone(),
        a_scale: a.meta.scale,
        b_scale: b.meta.scale,
        a_sites: a.rows.len() as u64,
        b_sites: b.rows.len() as u64,
        common,
        appeared,
        disappeared,
        adoption,
        transitions,
        family_flips,
    }
}

/// Scales one measured count back up to paper scale (`count / scale`,
/// rounded) for side-by-side comparison with the paper's numbers.
pub fn upscale(count: u64, scale: f64) -> u64 {
    (count as f64 / scale).round() as u64
}

/// Formats a count with thousands separators, like the paper's tables.
pub fn fmt_count(n: u64) -> String {
    let digits: Vec<char> = n.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(',');
        }
        out.push(*c);
    }
    out.chars().rev().collect()
}

fn signed(delta: i64) -> String {
    if delta >= 0 {
        format!("+{}", fmt_count(delta.unsigned_abs()))
    } else {
        format!("-{}", fmt_count(delta.unsigned_abs()))
    }
}

/// Renders the diff as the paper-style longitudinal report.
pub fn render_diff(diff: &CampaignDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "LONGITUDINAL DIFF — {} → {}",
        diff.a_label, diff.b_label
    );
    let _ = writeln!(
        out,
        "  sites: {} → {}   common {}, appeared {}, disappeared {}",
        fmt_count(diff.a_sites),
        fmt_count(diff.b_sites),
        fmt_count(diff.common),
        fmt_count(diff.appeared.len() as u64),
        fmt_count(diff.disappeared.len() as u64),
    );
    if (diff.a_scale - diff.b_scale).abs() > f64::EPSILON {
        let _ = writeln!(
            out,
            "  note: records use different scales ({} vs {}); paper-scale columns are per-record",
            diff.a_scale, diff.b_scale
        );
    }
    let _ = writeln!(out, "  adoption ({} → {}):", diff.a_label, diff.b_label);
    let _ = writeln!(
        out,
        "    {:<24}{:>10}{:>10}{:>9}   {:>11}{:>12}",
        "feature", "measured", "measured", "delta", "paper-scale", "paper-scale"
    );
    for delta in &diff.adoption {
        let _ = writeln!(
            out,
            "    {:<24}{:>10}{:>10}{:>9}   {:>11}{:>12}",
            delta.name,
            fmt_count(delta.a),
            fmt_count(delta.b),
            signed(delta.b as i64 - delta.a as i64),
            fmt_count(upscale(delta.a, diff.a_scale)),
            fmt_count(upscale(delta.b, diff.b_scale)),
        );
    }
    let _ = writeln!(
        out,
        "  per-site transitions among {} common sites:",
        fmt_count(diff.common)
    );
    let _ = writeln!(
        out,
        "    {:<24}{:>9}{:>9}{:>9}",
        "feature", "gained", "lost", "stable"
    );
    for t in &diff.transitions {
        let _ = writeln!(
            out,
            "    {:<24}{:>9}{:>9}{:>9}",
            t.name,
            fmt_count(t.gained),
            fmt_count(t.lost),
            fmt_count(t.stable),
        );
    }
    let _ = writeln!(
        out,
        "  server family changed on {} common sites",
        fmt_count(diff.family_flips)
    );
    for (what, sites) in [
        ("appeared", &diff.appeared),
        ("disappeared", &diff.disappeared),
    ] {
        if sites.is_empty() {
            continue;
        }
        let shown = sites.iter().take(10).cloned().collect::<Vec<_>>();
        let suffix = if sites.len() > shown.len() {
            format!(" … ({} more)", sites.len() - shown.len())
        } else {
            String::new()
        };
        let _ = writeln!(out, "  {what}: {}{suffix}", shown.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CampaignMeta;
    use webpop::{ExperimentSpec, Population};

    #[test]
    fn count_formatting_matches_paper_style() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(44_390), "44,390");
        assert_eq!(fmt_count(1_000_000), "1,000,000");
    }

    fn record_for(spec: ExperimentSpec, scale: f64) -> StoredRecord {
        let population = Population::new(spec, scale);
        let scope = h2scope::H2Scope::new();
        let rows: Vec<CampaignRow> = (0..population.h2_count())
            .map(|i| {
                let site = population.site(i);
                CampaignRow {
                    index: i,
                    family: site.family,
                    report: scope.survey(&site.target()),
                }
            })
            .collect();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        meta.sites = rows.len() as u64;
        StoredRecord {
            meta,
            rows,
            finalized: true,
        }
    }

    #[test]
    fn diff_of_the_two_campaigns_matches_the_paper_shape() {
        let a = record_for(ExperimentSpec::first(), 0.001);
        let b = record_for(ExperimentSpec::second(), 0.001);
        let diff = diff_records(&a, &b);
        // Jan 2017 has more h2 sites than Jul 2016; with stable rank
        // identity, the earlier campaign's sites are a prefix of the
        // later population, so nothing disappears at equal scale.
        assert!(diff.b_sites > diff.a_sites);
        assert_eq!(diff.common, diff.a_sites);
        assert_eq!(
            diff.appeared.len() as u64,
            diff.b_sites - diff.a_sites,
            "appeared sites are exactly the new h2 adopters"
        );
        assert!(diff.disappeared.is_empty());
        // Adoption counters in the diff are the same numbers the live
        // aggregation computes from in-memory records.
        for (delta, (ca, cb)) in diff
            .adoption
            .iter()
            .zip(feature_counts(&a.rows).iter().zip(feature_counts(&b.rows)))
        {
            assert_eq!(delta.a, *ca);
            assert_eq!(delta.b, cb);
        }
        let npn = &diff.adoption[0];
        assert!(npn.b > npn.a, "NPN adoption grows Jul → Jan");
        // Transition bookkeeping is internally consistent: sites with
        // the feature in A either keep it or lose it.
        let counts_a = feature_counts(&a.rows);
        for (t, ca) in diff.transitions.iter().zip(counts_a) {
            assert_eq!(t.stable + t.lost, ca, "{} churn adds up", t.name);
        }
    }

    #[test]
    fn render_includes_every_section() {
        let a = record_for(ExperimentSpec::first(), 0.001);
        let b = record_for(ExperimentSpec::second(), 0.001);
        let rendered = render_diff(&diff_records(&a, &b));
        for needle in [
            "LONGITUDINAL DIFF — Jul. 2016 → Jan. 2017",
            "adoption",
            "NPN h2",
            "per-site transitions",
            "server family changed",
            "appeared:",
        ] {
            assert!(rendered.contains(needle), "missing {needle:?}:\n{rendered}");
        }
    }

    #[test]
    fn identical_records_diff_to_zero_churn() {
        let a = record_for(ExperimentSpec::first(), 0.001);
        let diff = diff_records(&a, &a);
        assert_eq!(diff.common, diff.a_sites);
        assert!(diff.appeared.is_empty() && diff.disappeared.is_empty());
        assert_eq!(diff.family_flips, 0);
        for t in &diff.transitions {
            assert_eq!(t.gained + t.lost, 0, "{} must not churn", t.name);
        }
    }
}
