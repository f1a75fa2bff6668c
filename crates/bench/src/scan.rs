//! Parallel scan driver: surveys a whole synthetic population with a
//! thread pool, the reproduction of the paper's §IV-B scanning loop
//! ("we construct a thread pool with configurable number of threads, each
//! of which will test a web site").
//!
//! A [`Campaign`] names what to scan and how; its two runs — in-memory
//! [`Campaign::scan`] and persisted/resumable [`Campaign::scan_recorded`]
//! — share one worker loop on [`sweep`]. Each worker is a
//! shared-nothing simulator: it owns its [`H2Scope`] scratch state and
//! (per connection) a private netsim event loop, touching shared state
//! only to claim the next site index and, when observed, to bump the
//! campaign's `Relaxed` counters. Because every record depends only on
//! `(population, index, fault plan, seed)` — never on which worker ran
//! it or when — all outputs are byte-identical at any thread count.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use h2campaign::{CampaignMeta, CampaignRow, RecordError, RecordWriter};
use h2fault::{splitmix64, FaultPlan, FaultProfile, KillPoint};
use h2obs::Obs;
use h2scope::{survey_with_retries, H2Scope, ProbeOutcome, SiteReport};
use netsim::time::SimDuration;
use webpop::{Population, SiteSample};

use crate::sched::sweep;

/// How a recorded scan ([`Campaign::scan_recorded`]) ended.
#[derive(Debug)]
pub enum RecordedScan {
    /// The campaign completed and the record on disk was finalized.
    Complete {
        /// All records, in index order.
        records: Vec<CampaignRow>,
        /// Sites preloaded from a partial record instead of scanned.
        resumed: u64,
    },
    /// A [`KillPoint`] fired: the journal holds `rows` durable rows and
    /// no `end|` trailer — the on-disk state of a crashed campaign.
    Killed {
        /// Rows persisted before the simulated crash.
        rows: u64,
    },
}

/// One scan campaign: every h2 site of a population, surveyed by
/// `threads` workers.
#[derive(Debug, Clone)]
pub struct Campaign<'a> {
    /// The sites to scan.
    pub population: &'a Population,
    /// Worker threads (0 is treated as 1).
    pub threads: usize,
    /// Fault profile: every site's probes run against an impaired link
    /// (and possibly a byzantine server) derived deterministically from
    /// `(seed, site index, attempt)`, with deadlines and retry/backoff
    /// from the profile. `none` scans clean links on the plain path.
    pub faults: FaultProfile,
    /// Campaign seed for the fault plan.
    pub seed: u64,
    /// Observability handle: per-site metrics and (for sites under the
    /// `--trace-sites` limit) frame-level traces are recorded into it,
    /// through one [`Obs::for_site`] context per site that all of the
    /// site's retry attempts share.
    pub obs: Obs,
}

impl<'a> Campaign<'a> {
    /// A clean, unobserved campaign: no faults, seed 0, `Obs::off()`.
    pub fn new(population: &'a Population, threads: usize) -> Campaign<'a> {
        Campaign {
            population,
            threads,
            faults: FaultProfile::none(),
            seed: 0,
            obs: Obs::off(),
        }
    }

    /// Scans every h2 site of the population, returning records in
    /// index order.
    pub fn scan(&self) -> Vec<CampaignRow> {
        let (rows, _killed) = self.run(None, None);
        rows.into_iter()
            .map(|row| row.expect("only a journal's kill point skips sites"))
            .collect()
    }

    /// [`Campaign::scan`] with persistence: every finished site is
    /// appended (and flushed) to the campaign record at `path` before the
    /// worker moves on, so a killed process loses at most its in-flight
    /// sites. With `resume`, a partial record at `path` is validated
    /// against this campaign's configuration, its rows are preloaded, and
    /// only the missing sites are scanned. Either way a completed campaign
    /// finalizes the record into canonical index order — which is why a
    /// resumed campaign's final record is byte-identical to an
    /// uninterrupted one at any thread count: rows depend only on
    /// `(population, index)` and the final bytes only on `(meta, row set)`.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on I/O failure, a malformed record, or a resume
    /// against a record from a different campaign configuration.
    pub fn scan_recorded(
        &self,
        path: &Path,
        resume: bool,
        kill: Option<KillPoint>,
    ) -> Result<RecordedScan, RecordError> {
        let total = self.population.h2_count();
        let meta = CampaignMeta::describe(self.population, self.faults.name, self.seed);

        let mut records: Vec<CampaignRow> = Vec::new();
        if resume {
            let stored = h2campaign::read(path)?;
            meta.ensure_matches(&stored.meta)?;
            if stored.finalized {
                // Nothing to do — surface the stored campaign unchanged.
                self.obs.sites_resumed(stored.rows.len() as u64);
                return Ok(RecordedScan::Complete {
                    records: stored.rows,
                    resumed: total,
                });
            }
            records = stored.rows;
        }

        // `read` vouches for every stored index being below `meta.sites`.
        let mut present = vec![false; total as usize];
        for row in &records {
            present[row.index as usize] = true;
        }
        let resumed = records.len() as u64;
        self.obs.sites_resumed(resumed);
        let writer = if resume {
            RecordWriter::append_to(path, resumed)?
        } else {
            RecordWriter::create(path, &meta)?
        };
        let missing: Vec<u64> = (0..total).filter(|&i| !present[i as usize]).collect();
        let (scanned, killed) = self.run(Some(&missing), Some((&writer, kill)));
        if killed {
            return Ok(RecordedScan::Killed {
                rows: writer.rows_written(),
            });
        }
        // Two runs already in index order: the stable sort merges them.
        records.extend(scanned.into_iter().flatten());
        records.sort_by_key(|row| row.index);
        h2campaign::finalize(path, &meta, &records)?;
        Ok(RecordedScan::Complete { records, resumed })
    }

    /// The one scan loop, a [`sweep`] over positions — positions into
    /// `missing` when resuming (a partial record's gaps are rarely
    /// contiguous: workers were writing rows out of order when the
    /// process died), site indices themselves otherwise. A worker
    /// surveys its site and appends it to the `journal`'s record if
    /// there is one; everything else it touches is its own.
    ///
    /// Returns the rows in position order, and whether the journal's
    /// kill point fired: from then on workers skip every site they have
    /// not started, leaving `None` in its place.
    fn run(
        &self,
        missing: Option<&[u64]>,
        journal: Option<(&RecordWriter, Option<KillPoint>)>,
    ) -> (Vec<Option<CampaignRow>>, bool) {
        let todo = missing.map_or(self.population.h2_count(), |m| m.len() as u64);
        let plan = (!self.faults.is_none()).then(|| FaultPlan::new(self.faults, self.seed));
        let plan = plan.as_ref();
        // A monotonic false → true latch that workers only poll for an
        // early exit; `Relaxed` suffices, and the last load follows the
        // join.
        let killed = &AtomicBool::new(false);
        let rows = sweep(self.threads, todo, |_worker| {
            let scope_tool = H2Scope::new();
            move |pos| {
                if killed.load(Ordering::Relaxed) {
                    return None;
                }
                let i = missing.map_or(pos, |m| m[pos as usize]);
                let record = scan_one(&scope_tool, self.population, i, plan, self.seed, &self.obs);
                let crash = journal.is_some_and(|(writer, kill)| {
                    // A record that cannot persist its rows has lost
                    // its crash-safety contract; stop the campaign.
                    let written = writer.append(&record).expect("campaign record append");
                    kill.is_some_and(|k| written >= k.after_rows)
                });
                if crash {
                    killed.store(true, Ordering::Relaxed);
                }
                Some(record)
            }
        });
        (rows, killed.load(Ordering::Relaxed))
    }
}

/// Surveys one site through the single code path every scan variant
/// shares — in-memory, recorded, and resumed campaigns must produce
/// identical reports, so there is exactly one place that builds targets.
fn survey_one(
    scope_tool: &H2Scope,
    site: &SiteSample,
    plan: Option<&FaultPlan>,
    seed: u64,
    site_obs: &Obs,
) -> SiteReport {
    let Some(plan) = plan else {
        let mut target = site.target();
        target.obs = site_obs.clone();
        return scope_tool.survey(&target);
    };
    survey_with_retries(
        scope_tool,
        plan.profile().retry,
        splitmix64(seed ^ site.index),
        |attempt| {
            let injection = plan.injection(site.index, attempt);
            let mut target = site.target();
            target.obs = site_obs.clone();
            target.link = injection.impairment.apply(target.link);
            target.pipe_faults = injection.impairment.pipe_faults();
            target.patience = Some(plan.profile().deadline);
            target.seed ^= injection.seed_salt;
            if !injection.byzantine.is_noop() {
                // The rare byzantine attempt is the one place a target's
                // shared profile is customized; `make_mut` clones only
                // then, keeping clean attempts at pointer-bump cost.
                std::sync::Arc::make_mut(&mut target.profile)
                    .behavior
                    .byzantine = Some(injection.byzantine);
            }
            target
        },
    )
}

/// Scans site `i` end to end: survey (clean or faulted), per-site obs
/// bookkeeping, record assembly.
fn scan_one(
    scope_tool: &H2Scope,
    population: &Population,
    i: u64,
    plan: Option<&FaultPlan>,
    seed: u64,
    obs: &Obs,
) -> CampaignRow {
    let site = population.site(i);
    let site_obs = obs.for_site(i);
    let report = survey_one(scope_tool, &site, plan, seed, &site_obs);
    site_obs.finish_site();
    CampaignRow {
        index: i,
        family: site.family,
        report,
    }
}

/// Records restricted to HEADERS-returning sites (the denominator of every
/// follow-up analysis).
pub fn headers_records(records: &[CampaignRow]) -> Vec<&CampaignRow> {
    records
        .iter()
        .filter(|r| r.report.headers_received)
        .collect()
}

/// The scan report's resilience section: outcome histogram plus
/// retry/backoff accounting (printed by `repro` for faulted campaigns).
pub fn fault_summary(records: &[CampaignRow]) -> String {
    let mut counts = [0usize; 5];
    let mut attempts = 0u64;
    let mut retried = 0usize;
    let mut backoff = SimDuration::ZERO;
    for record in records {
        let stats = &record.report.probe;
        let slot = match stats.outcome {
            ProbeOutcome::Ok => 0,
            ProbeOutcome::Timeout => 1,
            ProbeOutcome::ConnReset => 2,
            ProbeOutcome::Malformed => 3,
            ProbeOutcome::GaveUpAfterRetries => 4,
        };
        counts[slot] += 1;
        attempts += u64::from(stats.attempts);
        if stats.attempts > 1 {
            retried += 1;
        }
        backoff = backoff + stats.backoff;
    }
    let mut out = String::new();
    out.push_str("Scan resilience\n");
    out.push_str(&format!("  sites scanned      {}\n", records.len()));
    out.push_str(&format!("  ok                 {}\n", counts[0]));
    out.push_str(&format!("  timeout            {}\n", counts[1]));
    out.push_str(&format!("  conn-reset         {}\n", counts[2]));
    out.push_str(&format!("  malformed          {}\n", counts[3]));
    out.push_str(&format!("  gave-up-after-retries {}\n", counts[4]));
    out.push_str(&format!(
        "  attempts           {attempts} total, {retried} sites retried\n"
    ));
    out.push_str(&format!(
        "  backoff spent      {:.1} s simulated\n",
        backoff.as_millis_f64() / 1_000.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::CutAction;
    use std::sync::Arc;
    use webpop::ExperimentSpec;

    fn scan(population: &Population, threads: usize) -> Vec<CampaignRow> {
        Campaign::new(population, threads).scan()
    }

    fn faulted(
        population: &Population,
        threads: usize,
        faults: FaultProfile,
        seed: u64,
    ) -> Campaign<'_> {
        Campaign {
            faults,
            seed,
            ..Campaign::new(population, threads)
        }
    }

    fn scan_faulted(
        population: &Population,
        threads: usize,
        faults: FaultProfile,
        seed: u64,
    ) -> Vec<CampaignRow> {
        faulted(population, threads, faults, seed).scan()
    }

    fn serialize(records: &[CampaignRow]) -> String {
        h2scope::storage::write_reports(records.iter().map(|r| &r.report))
    }

    /// A probe connection hands its storage to the next one its thread
    /// opens, and that storage carries no state: surveying a mixed list of
    /// sites one after another on one thread gives, site by site, the
    /// report and the metrics (traces included) that a newly spawned
    /// thread — which has no spare — gives for the site alone. The list
    /// holds several families, a mute site, a push site, a site whose
    /// SETTINGS shrink the server's HPACK table, connections that `flaky`
    /// cuts, servers that `byzantine` resets or truncates mid-stream, and
    /// a trickling server whose connections reach their deadline with
    /// deliveries still queued.
    #[test]
    fn recycled_connection_storage_carries_no_state() {
        const SEED: u64 = 3;
        let population = Population::new(ExperimentSpec::first(), 0.002);
        let flaky = FaultPlan::new(FaultProfile::flaky(), SEED);
        let byzantine = FaultPlan::new(FaultProfile::byzantine(), SEED);
        let sites = 0..population.h2_count();
        let first = |keep: &dyn Fn(&SiteSample) -> bool| {
            sites
                .clone()
                .find(|&i| keep(&population.site(i)))
                .expect("the population has such a site")
        };
        let first_attempt = |plan: &FaultPlan, keep: &dyn Fn(h2fault::FaultInjection) -> bool| {
            sites
                .clone()
                .find(|&i| keep(plan.injection(i, 0)))
                .expect("the plan injects such a fault")
        };
        let mut cases: Vec<(u64, Option<&FaultPlan>, bool)> = Vec::new();
        let mut families = Vec::new();
        for i in sites.clone() {
            let family = population.site(i).family;
            if families.len() < 4 && !families.contains(&family) {
                families.push(family);
                cases.push((i, None, false));
            }
        }
        cases.push((first(&|s| s.profile.behavior.mute), None, false));
        cases.push((first(&|s| s.profile.behavior.push), None, false));
        cases.push((cases[0].0, None, true));
        let has = |f: h2fault::FaultInjection, action| {
            f.impairment.cuts.iter().any(|c| c.action == action)
        };
        let cut = first_attempt(&flaky, &|f| has(f, CutAction::Drop));
        let reset = first_attempt(&byzantine, &|f| has(f, CutAction::Reset));
        let truncated = first_attempt(&byzantine, &|f| has(f, CutAction::Truncate));
        // Trickled DATA runs into the deadline with the server's next
        // chunk still in flight.
        let trickled = first_attempt(&byzantine, &|f| f.byzantine.trickle_data.is_some());
        cases.push((cut, Some(&flaky), false));
        cases.push((cases[1].0, None, false));
        cases.push((reset, Some(&byzantine), false));
        cases.push((cases[2].0, None, false));
        cases.push((truncated, Some(&byzantine), false));
        cases.push((cases[3].0, None, false));
        cases.push((trickled, Some(&byzantine), false));
        cases.push((cases[0].0, None, false));

        let survey = |(i, plan, shrunk): (u64, Option<&FaultPlan>, bool)| {
            let mut site = population.site(i);
            if shrunk {
                let announced = &mut Arc::make_mut(&mut site.profile).behavior.announced;
                *announced = announced
                    .clone()
                    .with(h2wire::SettingId::HeaderTableSize, 1_024);
            }
            let obs = Obs::campaign(u64::MAX);
            let site_obs = obs.for_site(i);
            let report = survey_one(&H2Scope::new(), &site, plan, SEED, &site_obs);
            site_obs.finish_site();
            (report, format!("{:?}", obs.snapshot()))
        };
        let one_thread: Vec<_> = cases.iter().map(|&case| survey(case)).collect();
        for (&case, warm) in cases.iter().zip(&one_thread) {
            let cold = std::thread::scope(|s| {
                s.spawn(|| survey(case))
                    .join()
                    .expect("the survey thread finishes")
            });
            assert_eq!(
                &cold,
                warm,
                "site {} (plan, shrunk table) {:?}",
                case.0,
                (case.1.map(|p| p.profile().name), case.2)
            );
        }
        assert!(
            one_thread
                .iter()
                .any(|(report, _)| report.probe.outcome != ProbeOutcome::Ok
                    || report.probe.attempts > 1),
            "the faulted sites fail or retry"
        );
    }

    /// Ground truth: every site of both experiments, surveyed through the
    /// campaign path with no faults and under every fault preset, reports
    /// what it was built to be. A survey that ended `Ok` matches
    /// `expected` on every verdict. One that did not may lack follow-up
    /// verdicts (the funnel stops where a probe failed), but every
    /// reaction it does report is the built one or `unknown`: a probe
    /// whose connection failed never reports a behavior it did not see.
    #[test]
    fn surveys_recover_every_site_as_built() {
        use h2scope::expected::{expected, Verdicts};
        use h2scope::Reaction;
        const SCALE: f64 = 0.02;
        let reactions = |v: &Verdicts| {
            [
                ("zero_update_stream", v.zero_update_stream),
                ("zero_update_conn", v.zero_update_conn),
                ("large_update_stream", v.large_update_stream),
                ("large_update_conn", v.large_update_conn),
                ("self_dependency", v.self_dependency),
            ]
        };
        for spec in ExperimentSpec::both() {
            let population = Population::new(spec, SCALE);
            let label = population.spec().label;
            for name in FaultProfile::names() {
                let faults = FaultProfile::parse(name).expect("a preset name");
                for row in scan_faulted(&population, 2, faults, 7) {
                    let site = population.site(row.index);
                    let want = expected(&site.profile.behavior, &site.site);
                    let got = Verdicts::of(&row.report);
                    let at = format!("{label} site {} under {name}", row.index);
                    if row.report.probe.outcome == ProbeOutcome::Ok {
                        assert_eq!(got, want, "{at}");
                        continue;
                    }
                    let pairs = reactions(&got).into_iter().zip(reactions(&want));
                    for ((field, got), (_, want)) in pairs {
                        assert!(
                            got.is_none() || got == want || got == Some(Reaction::Unknown),
                            "{at}: {field} reads {got:?}, built {want:?}"
                        );
                    }
                }
            }
        }
    }

    /// Site 2404 of experiment 1 at scale 0.2, under `flaky` with seed 2,
    /// returns HEADERS to the headers probe, but its HPACK probe sees
    /// none. That probe measured no ratio, so its verdict is unknown: a
    /// NaN ratio would read "does not index" to `expected` and panic
    /// Figure 4's median.
    #[test]
    fn an_hpack_probe_that_saw_no_headers_abstains() {
        let pop = Population::new(ExperimentSpec::first(), 0.2);
        let plan = FaultPlan::new(FaultProfile::flaky(), 2);
        let row = scan_one(&H2Scope::new(), &pop, 2404, Some(&plan), 1, &Obs::off());
        assert!(row.report.headers_received);
        assert_eq!(row.report.hpack, None);
    }

    #[test]
    fn scan_covers_the_population_in_order() {
        let population = Population::new(ExperimentSpec::first(), 0.001);
        let records = scan(&population, 4);
        assert_eq!(records.len() as u64, population.h2_count());
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
        let with_headers = headers_records(&records);
        // 0.1% scale: 44 of 52 sites return headers.
        assert_eq!(with_headers.len() as u64, population.headers_count());
    }

    #[test]
    fn scan_is_deterministic_across_thread_counts() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let a = scan(&population, 1);
        let b = scan(&population, 7);
        let c = scan(&population, 16);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.report, y.report);
            assert_eq!(x.report, z.report, "16 threads diverged");
        }
    }

    #[test]
    fn faulted_scan_is_byte_identical_across_thread_counts() {
        // A loss+jitter+drop campaign must replay exactly at any thread
        // count: faults derive from (seed, site, attempt), never from
        // scheduling.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let profile = FaultProfile::flaky();
        let a = scan_faulted(&population, 1, profile, 0xfa17);
        let b = scan_faulted(&population, 4, profile, 0xfa17);
        let c = scan_faulted(&population, 8, profile, 0xfa17);
        let d = scan_faulted(&population, 16, profile, 0xfa17);
        let (sa, sb, sc, sd) = (serialize(&a), serialize(&b), serialize(&c), serialize(&d));
        assert_eq!(sa, sb, "1 vs 4 threads");
        assert_eq!(sb, sc, "4 vs 8 threads");
        assert_eq!(sc, sd, "8 vs 16 threads");
        // The campaign actually exercised the impairments: some probes
        // resolved to degraded outcomes, and some sites burned retries.
        assert!(
            a.iter().any(|r| r.report.probe.outcome != ProbeOutcome::Ok),
            "flaky profile should degrade some sites"
        );
        assert!(a.iter().any(|r| r.report.probe.attempts > 1));
    }

    #[test]
    fn none_profile_ignores_the_seed_and_takes_the_plain_path() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let plain = scan(&population, 4);
        let faultless = scan_faulted(&population, 4, FaultProfile::none(), 99);
        assert_eq!(plain.len(), faultless.len());
        for (x, y) in plain.iter().zip(&faultless) {
            assert_eq!(x.report, y.report);
        }
    }

    #[test]
    fn faulted_campaign_seeds_change_the_outcome_mix() {
        // Retries mask most injected faults, so the outcome enum alone can
        // coincide; the serialized records (attempts, backoff, outcomes)
        // must still differ between seeds.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let profile = FaultProfile::flaky();
        let a = scan_faulted(&population, 4, profile, 1);
        let b = scan_faulted(&population, 4, profile, 2);
        assert_ne!(
            serialize(&a),
            serialize(&b),
            "different seeds, different faults"
        );
    }

    #[test]
    fn metrics_recording_does_not_perturb_the_records() {
        // The tentpole's contract: --metrics is observation only. The
        // serialized reports of an instrumented scan must be byte-identical
        // to the uninstrumented baseline.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let plain = serialize(&scan(&population, 4));
        let mut campaign = Campaign::new(&population, 4);
        campaign.obs = Obs::campaign(2);
        let observed = serialize(&campaign.scan());
        assert_eq!(plain, observed, "plain scan perturbed by metrics");
        let unobserved = serialize(&scan_faulted(&population, 4, FaultProfile::flaky(), 7));
        let mut campaign = faulted(&population, 4, FaultProfile::flaky(), 7);
        campaign.obs = Obs::campaign(2);
        let observed = serialize(&campaign.scan());
        assert_eq!(unobserved, observed, "faulted scan perturbed by metrics");
    }

    #[test]
    fn obs_snapshot_is_identical_across_thread_counts() {
        // Counters are order-independent sums folded across per-worker
        // shards, and traces are flushed as per-site batches, so the
        // whole rendered snapshot — table and JSON — must not depend on
        // worker scheduling or shard count.
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let run = |threads: usize| {
            let mut campaign = faulted(&population, threads, FaultProfile::flaky(), 7);
            campaign.obs = Obs::campaign(3);
            campaign.scan();
            let snap = campaign.obs.snapshot().expect("campaign obs snapshots");
            (h2obs::render_table(&snap), h2obs::render_json(&snap))
        };
        let (table1, json1) = run(1);
        let (table8, json8) = run(8);
        let (table16, json16) = run(16);
        assert_eq!(table1, table8);
        assert_eq!(json1, json8);
        assert_eq!(table8, table16);
        assert_eq!(json8, json16);
        assert!(json1.contains("\"schema\": \"h2obs-campaign-v2\""));
    }

    #[test]
    fn fault_summary_reports_the_taxonomy() {
        let population = Population::new(ExperimentSpec::first(), 0.0005);
        let records = scan_faulted(&population, 4, FaultProfile::flaky(), 0xfa17);
        let summary = fault_summary(&records);
        assert!(summary.contains("gave-up-after-retries"));
        assert!(summary.contains("sites retried"));
        assert!(summary.contains(&format!("sites scanned      {}", records.len())));
    }
}
