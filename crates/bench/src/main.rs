//! `repro` — regenerates every table and figure of "Are HTTP/2 Servers
//! Ready Yet?" (ICDCS 2017) against the simulated testbed and population.
//!
//! ```text
//! repro [COMMAND] [--scale S] [--exp 1|2|both] [--threads N] [--loads L]
//!                 [--faults PROFILE] [--seed N]
//!
//! A flag the command does not read (`serve --scale`, `table3 --record`,
//! `abuse --loads`), or a positional argument given to any command but
//! `diff`, `serve` and `probe`, is a usage error, exit 2.
//!
//! COMMANDS
//!   table3       Table III  testbed characterization matrix
//!   concurrency  §V-A       MAX_CONCURRENT_STREAMS enforcement
//!   ablation     §III-C     naive ordering check vs Algorithm 1
//!   adoption     §V-B1      NPN/ALPN/HEADERS adoption counts
//!   table4       Table IV   server families
//!   table5       Table V    SETTINGS_INITIAL_WINDOW_SIZE
//!   table6       Table VI   SETTINGS_MAX_FRAME_SIZE
//!   table7       Table VII  SETTINGS_MAX_HEADER_LIST_SIZE
//!   fig2         Figure 2   MAX_CONCURRENT_STREAMS CDF
//!   flowcontrol  §V-D       flow-control aggregates
//!   priority     §V-E       priority aggregates
//!   push         §V-F       push adoption
//!   fig3         Figure 3   page-load time with/without push
//!   fig4         Figure 4/5 HPACK ratio CDFs per family
//!   fig6         Figure 6   RTT by four estimators
//!   all          everything above (default)
//!   probe P      Table III  the column of one `ServerProfile::all()`
//!                profile P, testbed or wild-scan family (no paper check)
//!   diff A B     longitudinal diff of two finalized campaign records
//!                (regenerates the Jul. 2016 → Jan. 2017 comparison from
//!                disk alone — no rescan)
//!   serve R...   load finalized campaign records into a sharded
//!                in-memory index and answer a seeded query trace over
//!                real HTTP/2 connections (site lookups, table
//!                regeneration, longitudinal diffs); prints the response
//!                digest, cache and latency summary
//!   abuse        §VI        robustness matrix (per-profile abuse
//!                bounds) and attack matrix (every attack vector against
//!                every profile); writes ABUSE_campaign.json (schema
//!                h2attack-v2)
//!   push-study   §V-F++     population-scale push QoE sweep: RTT band ×
//!                bandwidth × push policy over dependency-graph page
//!                loads; per-policy load-time distributions and the
//!                help-vs-hurt breakdown; writes PUSH_campaign.json
//!                (schema h2push-study-v1)
//!
//! SERVE DAEMON
//!   --queries N        queries in the seeded trace (default 4096)
//!   --hostile          interleave h2attack slow-read / rapid-reset
//!                      clients with the query trace
//!
//! RECORD EXIT CODES (diff and serve)
//!   2  unreadable record (I/O error, garbled line, meta mismatch)
//!   4  unfinalized record (no end| trailer; finish with --resume)
//!   5  torn tail (crashed mid-append; resumable)
//!   6  checksum mismatch (rows corrupted after finalization)
//!
//! ABUSE MATRICES
//!   Both matrices are fixed by the profiles: `abuse` takes no seed,
//!   scale or thread count and reads `--out-dir` only.
//!
//! PUSH STUDY
//!   --sites N          cap on stride-sampled sites (default 48)
//!   --loads L          page loads per (site, link, policy) cell
//!                      (default 10, shared with fig3)
//!
//! FAULT CAMPAIGNS
//!   --faults PROFILE   scan under impairments: none, lossy, jittery,
//!                      flaky, byzantine, chaos (default none)
//!   --seed N           campaign seed; same seed replays the exact same
//!                      faults at any thread count (default 0)
//!
//! CAMPAIGN RECORDS
//!   --record PATH      persist every scanned site to an append-only
//!                      campaign record as it finishes; a completed
//!                      campaign finalizes the record (canonical order +
//!                      checksum trailer). With --exp both the experiment
//!                      name is inserted before the extension.
//!   --resume PATH      validate a partial record against this campaign,
//!                      preload its rows and scan only the missing sites;
//!                      the finalized record is byte-identical to an
//!                      uninterrupted run at any thread count
//!   --kill-after N     (testing) simulate a crash: stop appending after
//!                      N durable rows and exit with status 3, leaving
//!                      the partial record behind for --resume
//!
//! OBSERVABILITY
//!   --metrics          record campaign metrics (frame counters, wire
//!                      bytes, latency histograms); prints a table after
//!                      the experiments and writes OBS_campaign.json.
//!                      Everything above the metrics table stays
//!                      byte-identical to a --metrics-less run.
//!   --trace-sites N    additionally keep frame-level event traces for
//!                      the first N sites of each experiment (default 0)
//!   --out-dir DIR      route what the run writes into DIR (created if
//!                      absent): OBS_campaign.json and relative --record /
//!                      --resume paths; serve reads its record paths as
//!                      given, and diff, which writes nothing, refuses it
//! ```

#![allow(
    clippy::disallowed_types,
    reason = "the one consumer of real time: each banner reports how long the run took"
)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use h2campaign::CampaignRow;
use h2fault::{FaultProfile, KillPoint};
use h2obs::Obs;
use h2ready_bench::scan::{Campaign, RecordedScan};
use h2ready_bench::{abuse, figures, push_study, scan, serve, tables, wild};
use webpop::{ExperimentSpec, Population};

struct Options {
    command: String,
    command_args: Vec<String>,
    scale: f64,
    experiments: Vec<ExperimentSpec>,
    threads: usize,
    loads: usize,
    faults: FaultProfile,
    seed: u64,
    metrics: bool,
    trace_sites: u64,
    queries: u64,
    hostile: bool,
    sites: usize,
    record: Option<PathBuf>,
    resume: Option<PathBuf>,
    kill_after: Option<u64>,
    out_dir: Option<PathBuf>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// A `--scale` at which the population quota a command reads (`quota`
/// sites at full scale) rounds to zero sites is a usage error: every
/// mean and CDF over it would be 0/0. The message names the smallest
/// admissible scale — where the quota starts rounding to one site —
/// rounded up to three digits.
fn require_sites(command: &str, scale: f64, label: &str, quota: u64, what: &str) {
    // `Population::scaled`'s own rounding.
    if (quota as f64 * scale).round() >= 1.0 {
        return;
    }
    let smallest = 0.5 / quota as f64;
    let unit = 10f64.powi(smallest.log10().floor() as i32 - 2);
    usage_error(&format!(
        "--scale needs at least {:.2e} for `{command}` on {label}: {scale} leaves no {what}",
        (smallest / unit).ceil() * unit
    ));
}

/// The next argument, parsed as a flag's value; a missing or unparsable
/// one is a usage error saying what the flag `needs`.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, needs: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(needs))
}

fn parse_args() -> Options {
    let mut positionals: Vec<String> = Vec::new();
    let mut o = Options {
        command: "all".to_string(),
        command_args: Vec::new(),
        scale: 0.02,
        experiments: vec![ExperimentSpec::first(), ExperimentSpec::second()],
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        loads: 10,
        faults: FaultProfile::none(),
        seed: 0,
        metrics: false,
        trace_sites: 0,
        queries: 4096,
        hostile: false,
        sites: 48,
        record: None,
        resume: None,
        kill_after: None,
        out_dir: None,
    };
    let mut flags: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            flags.push(arg.clone());
        }
        match arg.as_str() {
            "--scale" => {
                const NEEDS: &str = "--scale needs a number in (0, 1]";
                o.scale = value(&mut args, NEEDS);
                if !(o.scale > 0.0 && o.scale <= 1.0) {
                    usage_error(NEEDS);
                }
            }
            "--exp" => match args.next().as_deref() {
                Some("1") => o.experiments = vec![ExperimentSpec::first()],
                Some("2") => o.experiments = vec![ExperimentSpec::second()],
                Some("both") => {}
                Some(other) => {
                    usage_error(&format!("unknown experiment {other}; use 1, 2 or both"));
                }
                None => usage_error("--exp needs an experiment: 1, 2 or both"),
            },
            "--threads" => {
                o.threads = value(&mut args, "--threads needs an unsigned worker count");
            }
            "--loads" => {
                o.loads = value(&mut args, "--loads needs an unsigned load count");
                if o.loads == 0 {
                    usage_error("--loads needs at least one load");
                }
            }
            "--faults" => {
                let name = args.next().unwrap_or_default();
                o.faults = FaultProfile::parse(&name).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown fault profile {name:?}; known profiles: {}",
                        FaultProfile::names().join(", ")
                    ))
                });
            }
            "--seed" => {
                o.seed = value(&mut args, "--seed needs an unsigned integer");
            }
            "--metrics" => o.metrics = true,
            "--trace-sites" => {
                o.trace_sites = value(&mut args, "--trace-sites needs an unsigned integer");
                o.metrics = true;
            }
            "--queries" => {
                o.queries = value(&mut args, "--queries needs an unsigned integer");
            }
            "--hostile" => o.hostile = true,
            "--sites" => {
                o.sites = value(&mut args, "--sites needs an unsigned site count");
                if o.sites == 0 {
                    usage_error("--sites needs at least one site");
                }
            }
            "--record" => {
                o.record = Some(value(&mut args, "--record needs a file path"));
            }
            "--resume" => {
                o.resume = Some(value(&mut args, "--resume needs a file path"));
            }
            "--kill-after" => {
                o.kill_after = Some(value(&mut args, "--kill-after needs an unsigned row count"));
            }
            "--out-dir" => {
                o.out_dir = Some(value(&mut args, "--out-dir needs a directory path"));
            }
            "--help" | "-h" => {
                println!(
                    "see crate docs: repro [{}] [--scale S] [--exp 1|2|both] [--threads N] [--loads L] [--faults PROFILE] [--seed N] [--metrics] [--trace-sites N] [--record PATH | --resume PATH] [--kill-after N] [--out-dir DIR] | repro probe PROFILE | repro diff A B | repro serve R... [--queries N] [--hostile] | repro abuse [--out-dir DIR] | repro push-study [--sites N]",
                    command_names().join("|")
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => {
                usage_error(&format!("unknown flag {other}"));
            }
        }
    }
    if o.record.is_some() && o.resume.is_some() {
        usage_error("--record and --resume are mutually exclusive; --resume already appends to (and finalizes) its record");
    }
    if o.kill_after.is_some() && o.record.is_none() && o.resume.is_none() {
        usage_error("--kill-after only makes sense with --record or --resume (it crashes a persisted campaign)");
    }
    let mut positionals = positionals.into_iter();
    if let Some(command) = positionals.next() {
        o.command = command;
    }
    if !command_names().contains(&o.command.as_str()) {
        usage_error(&format!(
            "unknown command {:?}; known commands: {}",
            o.command,
            command_names().join(", ")
        ));
    }
    if let Some(flag) = flags.iter().find(|flag| !reads(&o.command, flag)) {
        usage_error(&format!("{flag} is not valid for `{}`", o.command));
    }
    o.command_args = positionals.collect();
    if !o.command_args.is_empty() && !matches!(o.command.as_str(), "diff" | "serve" | "probe") {
        usage_error(&format!(
            "`{}` takes no arguments, got {:?}",
            o.command, o.command_args
        ));
    }
    o
}

/// Routes a relative path through `--out-dir` (absolute paths and runs
/// without `--out-dir` are untouched).
fn resolve(out_dir: Option<&Path>, path: &Path) -> PathBuf {
    match out_dir {
        Some(dir) if path.is_relative() => dir.join(path),
        _ => path.to_path_buf(),
    }
}

/// Writes one machine-readable artifact (`OBS_`/`ABUSE_`/`PUSH_campaign.json`)
/// through `--out-dir` and reports it on stderr under `[tag]`; an
/// artifact that cannot be written is exit 2.
fn write_artifact(out_dir: Option<&Path>, name: &str, body: String, tag: &str) {
    let path = resolve(out_dir, Path::new(name));
    if let Err(err) = std::fs::write(&path, body) {
        eprintln!("[{tag}] failed to write {}: {err}", path.display());
        std::process::exit(2);
    }
    eprintln!("[{tag}] wrote {}", path.display());
}

/// The record path for one experiment: with a single experiment the
/// user's path is used as-is; with several, the experiment name is
/// inserted before the extension so each campaign gets its own record.
fn per_experiment_path(base: &Path, spec_name: &str, multi: bool) -> PathBuf {
    if !multi {
        return base.to_path_buf();
    }
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{spec_name}.{ext}")),
        None => base.with_extension(spec_name),
    }
}

/// `repro probe <profile>`: one server profile's Table III column.
fn run_probe(options: &Options) -> ! {
    let profile = match options.command_args.as_slice() {
        [name] => h2server::ServerProfile::by_name(name),
        _ => None,
    };
    let Some(profile) = profile else {
        usage_error(&format!(
            "probe needs one server profile, got {:?}; known profiles: {}",
            options.command_args,
            h2server::ServerProfile::all()
                .map(|(name, _)| name)
                .join(", ")
        ))
    };
    print!("{}", tables::table3_column(profile));
    std::process::exit(0);
}

/// `repro diff A B`: regenerate the longitudinal comparison from two
/// finalized campaign records, no rescan.
fn run_diff(options: &Options) -> ! {
    let [a, b] = match options.command_args.as_slice() {
        [a, b] => [a, b],
        other => {
            eprintln!("diff needs exactly two record paths, got {}", other.len());
            std::process::exit(2);
        }
    };
    let mut stored = Vec::new();
    for path in [a, b] {
        // The same validated disk→memory path the serve index uses:
        // distinct exit codes per failure class, one-line diagnosis.
        match h2campaign::load_finalized(Path::new(path)) {
            Ok(record) => stored.push(record),
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(err.exit_code());
            }
        }
    }
    let diff = h2campaign::diff_records(&stored[0], &stored[1]);
    print!("{}", h2campaign::render_diff(&diff));
    std::process::exit(0);
}

/// `repro serve R...`: load finalized records into the sharded index and
/// replay a seeded query trace over real HTTP/2 connections.
fn run_serve(options: &Options) -> ! {
    if options.command_args.is_empty() {
        eprintln!("serve needs at least one finalized record path");
        std::process::exit(2);
    }
    let out_dir = options.out_dir.as_deref();
    let obs = if options.metrics {
        Obs::campaign(0)
    } else {
        Obs::off()
    };
    let mut cfg = serve::ServeConfig::new(options.command_args.iter().map(PathBuf::from).collect());
    cfg.workers = options.threads;
    cfg.queries = options.queries;
    cfg.seed = options.seed;
    cfg.hostile = options.hostile;
    cfg.obs = obs.clone();
    println!(
        "repro: command=serve records={} workers={} queries={} seed={} hostile={}\n",
        cfg.records.len(),
        cfg.workers,
        cfg.queries,
        cfg.seed,
        cfg.hostile
    );
    let started = Instant::now();
    let outcome = match serve::run_serve(&cfg) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(err.exit_code());
        }
    };
    let ok = outcome
        .responses
        .iter()
        .filter(|r| r.status == "200")
        .count();
    let (p50, p99) = outcome.latency_percentiles();
    println!(
        "serve: {} queries answered ({ok} ok, {} not-found)",
        outcome.responses.len(),
        outcome.responses.len() - ok
    );
    println!(
        "serve: cache hits {} misses {}; virtual latency p50 {p50}ns p99 {p99}ns",
        outcome.cache_hits, outcome.cache_misses
    );
    println!("serve: response digest {:016x}", outcome.digest);
    if !outcome.hostiles.is_empty() {
        let defended = outcome.hostiles.iter().filter(|h| h.defended).count();
        println!(
            "serve: {} hostile engagements interleaved, {defended} defended",
            outcome.hostiles.len()
        );
    }
    eprintln!(
        "[serve] answered {} queries in {:.1}s",
        outcome.responses.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(snapshot) = obs.snapshot() {
        println!("{}", h2obs::render_table(&snapshot));
        write_artifact(
            out_dir,
            "OBS_campaign.json",
            h2obs::render_json(&snapshot),
            "obs",
        );
    }
    std::process::exit(0);
}

/// `repro abuse`: the §VI robustness and attack matrices, plus the
/// machine-readable `ABUSE_campaign.json`.
fn run_abuse(options: &Options) -> ! {
    println!("repro: command=abuse\n");
    let robustness = h2attack::robustness_matrix();
    let attacks = h2attack::attack_matrix();
    println!("{}", abuse::render_report(&robustness, &attacks));
    write_artifact(
        options.out_dir.as_deref(),
        "ABUSE_campaign.json",
        abuse::render_json(&robustness, &attacks),
        "abuse",
    );
    std::process::exit(0);
}

/// `repro push-study`: the population-scale push QoE sweep — per-policy
/// page-load-time distributions, the help-vs-hurt breakdown, plus the
/// machine-readable `PUSH_campaign.json`.
fn run_push_study(options: &Options) -> ! {
    let spec = ExperimentSpec::second();
    require_sites(
        "push-study",
        options.scale,
        spec.label,
        spec.h2_sites,
        "h2 site to sample",
    );
    let study_options = push_study::StudyOptions {
        scale: options.scale,
        seed: options.seed,
        loads: options.loads,
        max_sites: options.sites,
        threads: options.threads,
    };
    println!(
        "repro: command=push-study scale={} threads={} seed={} sites={} loads={}\n",
        study_options.scale,
        study_options.threads,
        study_options.seed,
        study_options.max_sites,
        study_options.loads
    );
    let started = Instant::now();
    let report = push_study::run(&study_options);
    eprintln!(
        "[push-study] ran {} cells in {:.1}s",
        report.cells.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", push_study::render_report(&report));
    write_artifact(
        options.out_dir.as_deref(),
        "PUSH_campaign.json",
        push_study::render_json(&report),
        "push-study",
    );
    std::process::exit(0);
}

/// A report rendered from one experiment's scan.
type ScanReport = fn(&[CampaignRow], &Population) -> String;

/// The commands that read the population scan, in the order `all` prints
/// them (`fig5` is an alias of `fig4`, which `all` prints once).
const SCAN_REPORTS: [(&str, ScanReport); 11] = [
    ("adoption", wild::adoption),
    ("table4", wild::table4),
    ("table5", wild::table5),
    ("table6", wild::table6),
    ("table7", wild::table7),
    ("fig2", wild::fig2),
    ("flowcontrol", wild::flow_control),
    ("priority", wild::priority),
    ("push", wild::push_adoption),
    ("fig4", wild::hpack_figure),
    ("fig5", wild::hpack_figure),
];

/// The flags every command that scans the population reads.
#[rustfmt::skip]
const SCAN_FLAGS: [&str; 11] = [
    "--scale", "--exp", "--threads", "--faults", "--seed", "--metrics", "--trace-sites",
    "--record", "--resume", "--kill-after", "--out-dir",
];

/// Every other command, with the flags it reads (`all` scans as well, so
/// it reads [`SCAN_FLAGS`] besides). With [`SCAN_REPORTS`] this is the one
/// list the unknown-command check, [`reads`], [`needs_scan`] and `--help`
/// read.
#[rustfmt::skip]
const OTHER_COMMANDS: [(&str, &[&str]); 11] = [
    ("all", &["--loads"]),
    ("table3", &[]),
    ("concurrency", &[]),
    ("ablation", &[]),
    ("fig3", &["--scale", "--exp", "--loads"]),
    ("fig6", &["--scale", "--exp"]),
    ("probe", &[]),
    ("diff", &[]),
    ("serve", &["--threads", "--queries", "--seed", "--hostile", "--metrics", "--out-dir"]),
    ("abuse", &["--out-dir"]),
    ("push-study", &["--scale", "--threads", "--seed", "--sites", "--loads", "--out-dir"]),
];

fn command_names() -> Vec<&'static str> {
    let scans = SCAN_REPORTS.iter().map(|(name, _)| *name);
    OTHER_COMMANDS
        .iter()
        .map(|(name, _)| *name)
        .chain(scans)
        .collect()
}

fn needs_scan(command: &str) -> bool {
    command == "all" || SCAN_REPORTS.iter().any(|(name, _)| *name == command)
}

/// Does `command` read `flag`? One it does not read is refused rather
/// than silently ignored.
fn reads(command: &str, flag: &str) -> bool {
    let listed = |(name, flags): &(&str, &[&str])| *name == command && flags.contains(&flag);
    (needs_scan(command) && SCAN_FLAGS.contains(&flag)) || OTHER_COMMANDS.iter().any(listed)
}

fn main() {
    let options = parse_args();
    let command = options.command.as_str();
    if let Some(dir) = &options.out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir {}: {err}", dir.display());
            std::process::exit(2);
        }
    }
    match command {
        "probe" => run_probe(&options),
        "diff" => run_diff(&options),
        "serve" => run_serve(&options),
        "abuse" => run_abuse(&options),
        "push-study" => run_push_study(&options),
        _ => {}
    }
    if needs_scan(command) || matches!(command, "fig3" | "fig6") {
        for spec in &options.experiments {
            require_sites(
                command,
                options.scale,
                spec.label,
                spec.headers_sites,
                "HEADERS-returning site",
            );
        }
    }
    println!(
        "repro: command={command} scale={} threads={}\n",
        options.scale, options.threads
    );

    if matches!(command, "table3" | "all") {
        println!("{}", tables::table3());
    }
    if matches!(command, "concurrency" | "all") {
        println!("{}", tables::concurrency_experiment());
    }
    if matches!(command, "ablation" | "all") {
        println!("{}", tables::priority_ablation());
    }

    let obs = if options.metrics {
        Obs::campaign(options.trace_sites)
    } else {
        Obs::off()
    };

    let record_base = options.record.as_deref().or(options.resume.as_deref());
    for spec in &options.experiments {
        let population = Population::new(spec.clone(), options.scale);
        let records = if needs_scan(command) {
            let started = Instant::now();
            let campaign = Campaign {
                population: &population,
                threads: options.threads,
                faults: options.faults,
                seed: options.seed,
                obs: obs.clone(),
            };
            let records = if let Some(base) = record_base {
                let path = resolve(
                    options.out_dir.as_deref(),
                    &per_experiment_path(base, spec.name, options.experiments.len() > 1),
                );
                let outcome = campaign.scan_recorded(
                    &path,
                    options.resume.is_some(),
                    options.kill_after.map(KillPoint::after),
                );
                match outcome {
                    Ok(RecordedScan::Complete { records, resumed }) => {
                        if resumed > 0 {
                            eprintln!(
                                "[{}] resumed {resumed} sites from {}",
                                spec.name,
                                path.display()
                            );
                        }
                        eprintln!("[{}] finalized record {}", spec.name, path.display());
                        records
                    }
                    Ok(RecordedScan::Killed { rows }) => {
                        eprintln!(
                            "[{}] simulated crash: {rows} durable rows left in partial record {}",
                            spec.name,
                            path.display()
                        );
                        std::process::exit(3);
                    }
                    Err(err) => {
                        eprintln!("[{}] campaign record error: {err}", spec.name);
                        std::process::exit(2);
                    }
                }
            } else {
                campaign.scan()
            };
            eprintln!(
                "[{}] scanned {} h2 sites in {:.1}s",
                spec.name,
                records.len(),
                started.elapsed().as_secs_f64()
            );
            if !options.faults.is_none() {
                println!(
                    "[{} faults={} seed={}]\n{}",
                    spec.name,
                    options.faults.name,
                    options.seed,
                    scan::fault_summary(&records)
                );
            }
            records
        } else {
            Vec::new()
        };

        for (name, report) in SCAN_REPORTS {
            if command == name || (command == "all" && name != "fig5") {
                println!("{}", report(&records, &population));
            }
        }
        if matches!(command, "fig3" | "all") {
            println!("{}", figures::fig3(&population, options.loads));
        }
        if matches!(command, "fig6" | "all") {
            println!("{}", figures::fig6(&population, 60, 10));
        }
    }

    // The metrics table is the last stdout section, below the marker, so
    // consumers can strip it and diff the experiment output byte-for-byte
    // against a --metrics-less run.
    if let Some(snapshot) = obs.snapshot() {
        println!("{}", h2obs::render_table(&snapshot));
        write_artifact(
            options.out_dir.as_deref(),
            "OBS_campaign.json",
            h2obs::render_json(&snapshot),
            "obs",
        );
    }
}
