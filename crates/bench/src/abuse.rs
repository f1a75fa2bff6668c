//! Mixed benign+attack abuse campaigns (`repro abuse`): the §VI
//! robustness experiment.
//!
//! A synthetic population of connections — honest page loads, honest
//! page loads over impaired links, and seeded attack engagements drawn
//! from [`h2attack::vectors`] — runs against the seven testbed profiles
//! in virtual time. Every connection's class and target derive purely
//! from `(campaign seed, site index)`, work is distributed by
//! [`sweep`], and traces flush as per-site batches, so the whole report
//! is byte-identical at any thread count (the same contract as
//! [`crate::scan`]).
//!
//! The output has three sections: the per-profile robustness matrix
//! (Table III methodology extended to abuse hardening), the campaign
//! mix with per-vector defense counts, and the detector's confusion
//! matrix against ground truth.

use std::fmt::Write as _;

use h2attack::{AttackReport, AttackVector, ConfusionMatrix, Detector, RobustnessRow};
use h2fault::{splitmix64, ImpairmentSpec};
use h2obs::{Obs, SiteTrace};
use h2scope::{ProbeConn, Reaction, Target};
use h2server::{ServerProfile, SiteSpec};
use h2wire::Settings;
use netsim::time::SimDuration;

use crate::sched::sweep;

/// Campaign size at `--scale 1`: 60 connections per testbed profile.
const BASE_SITES: u64 = 420;
/// Smallest population that still mixes every class against every
/// profile (so `--scale 0.01` smoke runs stay meaningful).
const MIN_SITES: u64 = 42;
/// Honest clients abandon a fetch after this long, which also bounds
/// every benign trace far below the detector's stall threshold.
const BENIGN_PATIENCE_SECS: u64 = 5;

/// Configuration for one abuse campaign.
#[derive(Debug, Clone)]
pub struct AbuseOptions {
    /// Attack vectors in play (rotated over deterministically).
    pub vectors: Vec<AttackVector>,
    /// Benign parts of the traffic mix (default 3).
    pub benign_share: u64,
    /// Attack parts of the traffic mix (default 1).
    pub attack_share: u64,
    /// Campaign seed: same seed, same campaign, at any thread count.
    pub seed: u64,
    /// Population scale factor (1.0 = 420 connections).
    pub scale: f64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AbuseOptions {
    fn default() -> AbuseOptions {
        AbuseOptions {
            vectors: AttackVector::ALL.to_vec(),
            benign_share: 3,
            attack_share: 1,
            seed: 0,
            scale: 1.0,
            threads: 4,
        }
    }
}

impl AbuseOptions {
    fn site_count(&self) -> u64 {
        let scaled = (BASE_SITES as f64 * self.scale).round() as u64;
        scaled.max(MIN_SITES)
    }
}

/// Ground-truth class of one campaign connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// An honest client on a clean link.
    Benign,
    /// An honest client on a badly impaired link — the class a naive
    /// rate/latency detector misflags.
    BenignDegraded,
    /// A seeded attack engagement.
    Attack(AttackVector),
}

/// One finished campaign connection.
#[derive(Debug, Clone)]
pub struct SiteOutcome {
    /// Site index within the campaign.
    pub index: u64,
    /// Profile the connection ran against.
    pub server: String,
    /// Ground truth.
    pub class: SiteClass,
    /// The attack's unified report (attack sites only).
    pub report: Option<AttackReport>,
}

/// A completed campaign plus everything `repro abuse` prints.
#[derive(Debug, Clone)]
pub struct AbuseCampaign {
    /// Per-connection outcomes in index order.
    pub outcomes: Vec<SiteOutcome>,
    /// Detector verdicts in index order (`None` = benign).
    pub verdicts: Vec<Option<AttackVector>>,
    /// Detector evaluation against ground truth.
    pub confusion: ConfusionMatrix,
    /// The per-profile robustness matrix.
    pub robustness: Vec<RobustnessRow>,
}

/// The class of site `i` — a pure function of `(seed, i, mix, vectors)`.
pub fn site_class(options: &AbuseOptions, i: u64) -> SiteClass {
    let r = splitmix64(options.seed ^ splitmix64(i.wrapping_add(0xab05e)));
    let parts = (options.benign_share + options.attack_share).max(1);
    if r % parts < options.benign_share {
        // Every third benign connection rides a degraded link.
        if splitmix64(r).is_multiple_of(3) {
            SiteClass::BenignDegraded
        } else {
            SiteClass::Benign
        }
    } else {
        let pick = splitmix64(r ^ 0xa77) as usize % options.vectors.len().max(1);
        SiteClass::Attack(options.vectors[pick])
    }
}

/// The degraded-link impairment for benign-degraded sites: a long-haul
/// link composed with a congested last mile (two independently plausible
/// impairments layered via [`ImpairmentSpec::compose`]).
fn degraded_impairment() -> ImpairmentSpec {
    let long_haul = ImpairmentSpec {
        extra_delay: SimDuration::from_millis(80),
        extra_jitter: SimDuration::from_millis(15),
        extra_loss: 0.02,
        ..ImpairmentSpec::default()
    };
    let congested = ImpairmentSpec {
        extra_loss: 0.03,
        bandwidth_cap_bps: Some(2_000_000),
        ..ImpairmentSpec::default()
    };
    long_haul.compose(&congested)
}

/// Builds site `i`'s target: profile cycles through the testbed plus the
/// RFC reference, the seed mixes the campaign seed with the index, and
/// benign-degraded sites get the composed impairment.
fn site_target(profiles: &[ServerProfile], options: &AbuseOptions, i: u64, obs: &Obs) -> Target {
    let profile = profiles[(i % profiles.len() as u64) as usize].clone();
    let mut target = Target::testbed(profile, SiteSpec::benchmark());
    target.seed ^= splitmix64(options.seed ^ i);
    target.obs = obs.clone();
    target
}

/// Runs one honest page load: establish, fetch the page and two assets,
/// abandon politely at the patience deadline.
fn benign_load(target: &mut Target, conn_seed: u64, degraded: bool) {
    target.patience = Some(SimDuration::from_secs(BENIGN_PATIENCE_SECS));
    if degraded {
        let impairment = degraded_impairment();
        target.link = impairment.apply(target.link);
        target.pipe_faults = impairment.pipe_faults();
    }
    let mut conn = ProbeConn::establish(target, Settings::new(), conn_seed);
    conn.exchange();
    for (stream, path) in [(1, "/"), (3, "/style.css"), (5, "/app.js")] {
        if conn.is_dead() {
            break;
        }
        let _ = conn.fetch(stream, path);
    }
}

/// Runs site `i` end to end and returns its outcome. Pure in
/// `(options, i)` — the determinism contract of the whole campaign.
fn run_site(profiles: &[ServerProfile], options: &AbuseOptions, i: u64, obs: &Obs) -> SiteOutcome {
    let site_obs = obs.for_site(i);
    let class = site_class(options, i);
    let mut target = site_target(profiles, options, i, &site_obs);
    let server = target.profile.name.clone();
    let conn_seed = splitmix64(options.seed ^ splitmix64(i ^ 0xc0117));
    let report = match class {
        SiteClass::Benign => {
            benign_load(&mut target, conn_seed, false);
            None
        }
        SiteClass::BenignDegraded => {
            benign_load(&mut target, conn_seed, true);
            None
        }
        SiteClass::Attack(vector) => Some(h2attack::run(vector, &target, conn_seed)),
    };
    site_obs.finish_site();
    SiteOutcome {
        index: i,
        server,
        class,
        report,
    }
}

/// Runs the whole campaign: the mixed population, the detector pass and
/// the robustness matrix. Byte-identical at any `threads`.
pub fn run_campaign(options: &AbuseOptions) -> AbuseCampaign {
    let total = options.site_count();
    let mut profiles = ServerProfile::testbed();
    profiles.push(ServerProfile::rfc7540());
    // Trace every site: the detector consumes the frame-level traces.
    let obs = Obs::campaign(total);
    let (profiles, obs) = (&profiles, &obs);
    let outcomes = sweep(options.threads, total, |_worker| {
        move |i| run_site(profiles, options, i, obs)
    });

    let snapshot = obs.snapshot().expect("campaign obs snapshots");
    let detector = Detector::default();
    let mut confusion = ConfusionMatrix::default();
    let mut verdicts = Vec::with_capacity(outcomes.len());
    let mut traces = snapshot.traces.iter().peekable();
    for outcome in &outcomes {
        let trace: Option<&SiteTrace> = match traces.peek() {
            Some(t) if t.site == outcome.index => traces.next(),
            _ => None,
        };
        let verdict = trace.and_then(|t| detector.classify(t));
        let truth = match outcome.class {
            SiteClass::Attack(v) => Some(v),
            _ => None,
        };
        confusion.record(truth, verdict);
        verdicts.push(verdict);
    }

    AbuseCampaign {
        outcomes,
        verdicts,
        confusion,
        robustness: h2attack::robustness_matrix(),
    }
}

fn reaction_cell(reaction: Reaction) -> &'static str {
    match reaction {
        Reaction::Ignored => "-",
        Reaction::RstStream => "RST_STREAM",
        Reaction::Goaway => "GOAWAY",
        Reaction::GoawayWithDebug => "GOAWAY+debug",
    }
}

/// Renders the §V-style robustness matrix: one row per profile, one
/// column per abuse probe, the measured reaction in each cell.
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

/// Renders the campaign mix and per-vector attack/defense counts.
pub fn render_mix(campaign: &AbuseCampaign) -> String {
    let mut out = String::new();
    let benign = campaign
        .outcomes
        .iter()
        .filter(|o| o.class == SiteClass::Benign)
        .count();
    let degraded = campaign
        .outcomes
        .iter()
        .filter(|o| o.class == SiteClass::BenignDegraded)
        .count();
    let attacked = campaign.outcomes.len() - benign - degraded;
    out.push_str("Campaign mix\n");
    let _ = writeln!(out, "  connections        {}", campaign.outcomes.len());
    let _ = writeln!(out, "  benign             {benign}");
    let _ = writeln!(out, "  benign (degraded)  {degraded}");
    let _ = writeln!(out, "  attacked           {attacked}\n");
    out.push_str("Attacks by vector (defended = server pushed back)\n");
    for vector in AttackVector::ALL {
        let runs: Vec<&AttackReport> = campaign
            .outcomes
            .iter()
            .filter_map(|o| o.report.as_ref())
            .filter(|r| r.vector == vector)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let defended = runs.iter().filter(|r| r.defended).count();
        let max_cost = runs.iter().map(|r| r.server_cost).max().unwrap_or(0);
        let unit = runs[0].cost_unit;
        let _ = writeln!(
            out,
            "  {:<18} {:>4} runs  {:>4} defended  worst cost {max_cost} {unit}",
            vector.name(),
            runs.len(),
            defended,
        );
    }
    out
}

/// Renders the detector's confusion matrix and headline scores.
pub fn render_confusion(campaign: &AbuseCampaign) -> String {
    let m = &campaign.confusion;
    let mut out = String::new();
    out.push_str("Detector confusion matrix (positive = attacked)\n");
    let _ = writeln!(out, "  {:<22} {:>10} {:>10}", "", "flagged", "passed");
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>10}",
        "attacked", m.true_positives, m.false_negatives
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>10}",
        "benign", m.false_positives, m.true_negatives
    );
    let _ = writeln!(out, "  precision          {:.4}", m.precision());
    let _ = writeln!(out, "  recall             {:.4}", m.recall());
    let _ = writeln!(out, "  vector label acc.  {:.4}", m.label_accuracy());
    out
}

/// The full stdout report, in fixed section order.
pub fn render_report(campaign: &AbuseCampaign) -> String {
    format!(
        "{}\n{}\n{}",
        render_robustness(&campaign.robustness),
        render_mix(campaign),
        render_confusion(campaign)
    )
}

/// Renders the machine-readable `ABUSE_campaign.json` document
/// (schema `h2attack-v1`). Key order is fixed and every value derives
/// from index-ordered data, so the bytes match at any thread count.
pub fn render_json(options: &AbuseOptions, campaign: &AbuseCampaign) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"h2attack-v1\",\n");
    let _ = writeln!(out, "  \"seed\": {},", options.seed);
    let _ = writeln!(out, "  \"connections\": {},", campaign.outcomes.len());
    let vectors: Vec<String> = options
        .vectors
        .iter()
        .map(|v| format!("\"{}\"", v.name()))
        .collect();
    let _ = writeln!(out, "  \"vectors\": [{}],", vectors.join(","));
    let _ = writeln!(
        out,
        "  \"mix\": {{\"benign\":{},\"attack\":{}}},",
        options.benign_share, options.attack_share
    );
    out.push_str("  \"robustness\": [\n");
    for (i, row) in campaign.robustness.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"server\":\"{}\",\"rst_rate\":\"{}\",\"settings_rate\":\"{}\",\"continuation\":\"{}\",\"stall\":\"{}\",\"header_list\":\"{}\",\"defenses\":{}}}",
            row.server,
            row.report.rst_rate,
            row.report.settings_rate,
            row.report.continuation_bound,
            row.report.stalled_stream,
            row.report.header_list_bound,
            row.defenses(),
        );
        out.push_str(if i + 1 < campaign.robustness.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let m = &campaign.confusion;
    let _ = writeln!(
        out,
        "  \"confusion\": {{\"tp\":{},\"fp\":{},\"tn\":{},\"fn\":{},\"labels_correct\":{}}},",
        m.true_positives,
        m.false_positives,
        m.true_negatives,
        m.false_negatives,
        m.vector_labels_correct
    );
    let _ = writeln!(out, "  \"precision\": {:.6},", m.precision());
    let _ = writeln!(out, "  \"recall\": {:.6},", m.recall());
    let _ = writeln!(out, "  \"label_accuracy\": {:.6}", m.label_accuracy());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options(threads: usize) -> AbuseOptions {
        AbuseOptions {
            scale: 0.01,
            threads,
            ..AbuseOptions::default()
        }
    }

    #[test]
    fn campaign_report_is_byte_identical_across_thread_counts() {
        let render = |threads: usize| {
            let options = smoke_options(threads);
            let campaign = run_campaign(&options);
            (render_report(&campaign), render_json(&options, &campaign))
        };
        let (report1, json1) = render(1);
        let (report4, json4) = render(4);
        let (report8, json8) = render(8);
        assert_eq!(report1, report4, "1 vs 4 threads");
        assert_eq!(report4, report8, "4 vs 8 threads");
        assert_eq!(json1, json4);
        assert_eq!(json4, json8);
    }

    #[test]
    fn detector_meets_the_pinned_precision_and_recall_floor() {
        // The acceptance fixture: seed 0, default mix, every vector.
        let options = smoke_options(4);
        let campaign = run_campaign(&options);
        let m = &campaign.confusion;
        assert!(
            m.true_positives + m.false_negatives > 0,
            "fixture must contain attacks"
        );
        assert!(m.true_negatives + m.false_positives > 0);
        assert!(
            m.precision() >= 0.95,
            "precision {:.4} below floor: {m:?}",
            m.precision()
        );
        assert!(
            m.recall() >= 0.95,
            "recall {:.4} below floor: {m:?}",
            m.recall()
        );
        assert!(m.label_accuracy() >= 0.95, "{m:?}");
    }

    #[test]
    fn mix_honors_the_requested_shares_and_vector_filter() {
        let options = AbuseOptions {
            vectors: vec![AttackVector::RapidReset, AttackVector::SettingsFlood],
            benign_share: 1,
            attack_share: 1,
            scale: 0.1,
            threads: 2,
            ..AbuseOptions::default()
        };
        let campaign = run_campaign(&options);
        let attacked = campaign
            .outcomes
            .iter()
            .filter(|o| matches!(o.class, SiteClass::Attack(_)))
            .count();
        let total = campaign.outcomes.len();
        // A 1:1 mix: the attack share lands within a loose band.
        assert!(
            attacked * 4 > total && attacked * 4 < total * 3,
            "{attacked}/{total}"
        );
        for outcome in &campaign.outcomes {
            if let SiteClass::Attack(v) = outcome.class {
                assert!(options.vectors.contains(&v), "{v:?} not requested");
            }
        }
    }

    #[test]
    fn degraded_benign_links_are_not_misflagged() {
        let options = smoke_options(4);
        let campaign = run_campaign(&options);
        let mut saw_degraded = false;
        for (outcome, verdict) in campaign.outcomes.iter().zip(&campaign.verdicts) {
            if outcome.class == SiteClass::BenignDegraded {
                saw_degraded = true;
                assert_eq!(*verdict, None, "site {} misflagged", outcome.index);
            }
        }
        assert!(saw_degraded, "fixture must include degraded benign sites");
    }

    #[test]
    fn different_seeds_draw_different_campaigns() {
        let a = run_campaign(&AbuseOptions {
            seed: 1,
            ..smoke_options(4)
        });
        let b = run_campaign(&AbuseOptions {
            seed: 2,
            ..smoke_options(4)
        });
        let classes = |c: &AbuseCampaign| c.outcomes.iter().map(|o| o.class).collect::<Vec<_>>();
        assert_ne!(classes(&a), classes(&b));
    }
}
