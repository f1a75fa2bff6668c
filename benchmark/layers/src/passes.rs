//! The four workloads re-driven in process through public functions: one
//! decomposed, span-recording pass on the same inputs as the end-to-end
//! run, and one counts pass with `Obs::campaign(0)` on that doubles as
//! the drift guard (it runs what the product runs and must agree with
//! the decomposed pass result for result).

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    Counts, Daemon, Observer, Recorder, Scan, Study, SurveyMode, Surveyed, CONN_BATCH, LINKS,
    POLICIES,
};
use crate::span::{self, Span};

/// How much the workload-independent part of a traced run measures.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sites, page loads and lookups behind the reference composites.
    pub ref_sites: u64,
    pub ref_loads: u64,
    pub ref_lookups: u64,
    /// Timed batches per unit row.
    pub batches: usize,
}

pub const FULL: Size = Size {
    ref_sites: 1_000,
    ref_loads: 1_000,
    ref_lookups: 2_500,
    batches: 7,
};

pub const QUICK: Size = Size {
    ref_sites: 100,
    ref_loads: 100,
    ref_lookups: 500,
    batches: 3,
};

/// Population scale behind the reference composites and webpop rows
/// (1,046 sites in the first campaign), whatever the workload sizes are.
pub const REFERENCE_SCALE: f64 = 0.02;
/// Sites sampled and loads per cell of the reference page loads.
pub const REFERENCE_PUSH_SITES: usize = 64;
pub const REFERENCE_PUSH_LOADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanPlain,
    ScanFlakyRecorded,
    ServeMixed,
    PushPageload,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan_plain" => Some(Workload::ScanPlain),
            "scan_flaky_recorded" => Some(Workload::ScanFlakyRecorded),
            "serve_mixed" => Some(Workload::ServeMixed),
            "push_pageload" => Some(Workload::PushPageload),
            _ => None,
        }
    }
}

/// What one pass over a workload did, beyond its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub ops: u64,
    /// Surveyed sites (0 on workloads that survey none).
    pub sites: u64,
    pub ok_sites: u64,
    pub attempts: u64,
    pub promised: u64,
    pub delivered: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// FNV-1a over every result, in op order: the drift guard's witness.
    pub digest: u64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// What a pass works on: the end-to-end run's input sizes (handed over by
/// the driver, which owns them), seed and files.
pub struct Inputs<'a> {
    pub scan_scale: f64,
    pub queries: u64,
    pub push_sites: usize,
    pub push_loads: usize,
    pub seed: u64,
    /// The workload's scratch directory under `benchmark/out/`.
    pub dir: &'a Path,
    /// The finalized records the end-to-end run wrote (`serve_mixed`).
    pub records: &'a [PathBuf],
}

/// The decomposed pass: spans on, observability off.
pub struct Decomposed {
    pub tally: Tally,
    /// Every surveyed site, in op order (scan workloads only).
    pub sites: Vec<Surveyed>,
    pub wall_ns: u64,
    pub spans: Vec<Span>,
}

/// The fastest of three decomposed passes (the end-to-end yardstick it is
/// compared with is the best of a group of passes too).
pub fn decomposed(workload: Workload, inputs: &Inputs) -> Decomposed {
    (0..3)
        .map(|_| {
            span::start();
            let started = Instant::now();
            let (tally, sites) = run(workload, inputs, &Observer::off(), SurveyMode::Decomposed);
            let wall_ns = started.elapsed().as_nanos() as u64;
            Decomposed {
                tally,
                sites,
                wall_ns,
                spans: span::finish(),
            }
        })
        .min_by_key(|pass| pass.wall_ns)
        .expect("three passes")
}

/// The counts pass: what the product runs, observability on, untimed.
pub fn counted(workload: Workload, inputs: &Inputs) -> (Tally, Vec<Surveyed>, Counts) {
    let observer = Observer::on();
    let (tally, sites) = run(workload, inputs, &observer, SurveyMode::Product);
    (tally, sites, observer.counts())
}

fn run(
    workload: Workload,
    inputs: &Inputs,
    observer: &Observer,
    mode: SurveyMode,
) -> (Tally, Vec<Surveyed>) {
    match workload {
        Workload::ScanPlain => scan(&Scan::plain(inputs.scan_scale), None, observer, mode),
        Workload::ScanFlakyRecorded => {
            let scan_def = Scan::flaky(inputs.scan_scale, inputs.seed);
            scan(&scan_def, Some(inputs.dir), observer, mode)
        }
        Workload::ServeMixed => (serve(inputs, observer, mode), Vec::new()),
        Workload::PushPageload => (push(inputs, observer), Vec::new()),
    }
}

/// Both campaigns, site by site; with `record_dir` every row is journaled
/// and each campaign's record finalized, as `--record` does.
pub fn scan(
    scan: &Scan,
    record_dir: Option<&Path>,
    observer: &Observer,
    mode: SurveyMode,
) -> (Tally, Vec<Surveyed>) {
    let mut tally = Tally::default();
    let mut all = Vec::new();
    for population in 0..scan.campaigns() {
        let path =
            record_dir.map(|dir| dir.join(format!("layers.experiment-{}.h2c", population + 1)));
        let recorder = path
            .as_ref()
            .map(|path| Recorder::create(scan, population, path));
        let mut sites = Vec::with_capacity(scan.sites(population) as usize);
        for i in 0..scan.sites(population) {
            let _op = span::op("op", tally.ops as u32);
            let site = scan.scan_one(population, i, observer, mode);
            if let Some(recorder) = &recorder {
                recorder.append(&site);
            }
            tally.ops += 1;
            tally.ok_sites += u64::from(site.ok());
            tally.attempts += site.attempts();
            sites.push(site);
        }
        if let Some(recorder) = recorder {
            recorder.finalize(&sites);
        }
        if let (Some(dir), Some(path)) = (record_dir, &path) {
            // Drift guard: the mirror's record is the product's, byte for byte.
            let product = dir.join(format!("f.experiment-{}.h2c", population + 1));
            if let Ok(expected) = std::fs::read(&product) {
                let written = std::fs::read(path).expect("the record was just written");
                assert!(
                    written == expected,
                    "drift: {} differs from the product's {}",
                    path.display(),
                    product.display()
                );
            }
        }
        all.append(&mut sites);
    }
    tally.sites = tally.ops;
    (tally, all)
}

fn serve(inputs: &Inputs, observer: &Observer, mode: SurveyMode) -> Tally {
    let daemon = Daemon::load(inputs.records, inputs.seed, observer);
    let paths = daemon.trace(inputs.seed, inputs.queries);
    // The guard pass also answers every query through a directly called
    // handler over its own daemon (own cache, so hit accounting of the
    // measured one is untouched).
    let mut direct = (mode == SurveyMode::Product)
        .then(|| Daemon::load(inputs.records, inputs.seed, &Observer::off()).handler());
    let mut tally = Tally {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Tally::default()
    };
    let mut client = daemon.connect(0);
    for (k, path) in paths.iter().enumerate() {
        if k > 0 && k % CONN_BATCH == 0 {
            client = daemon.connect(k / CONN_BATCH);
        }
        let _op = span::op("op", k as u32);
        let answer = daemon.lookup(&mut client, path);
        if let Some(direct) = &mut direct {
            assert!(
                direct.handle(path) == answer,
                "drift: wire and direct answers differ for {path}"
            );
        }
        assert!(!answer.status.is_empty(), "lookup {path} went unanswered");
        fnv(&mut tally.digest, answer.status.as_bytes());
        fnv(&mut tally.digest, &answer.body);
        tally.ops += 1;
    }
    (tally.cache_hits, tally.cache_misses) = daemon.cache_hits_misses();
    tally
}

fn push(inputs: &Inputs, observer: &Observer) -> Tally {
    let study = Study::new(inputs.seed, inputs.push_sites);
    push_loads(&study, inputs.push_loads, u64::MAX, observer)
}

/// The study's loads in product order (site, link, policy, load), at most
/// `limit` of them.
pub fn push_loads(study: &Study, loads: usize, limit: u64, observer: &Observer) -> Tally {
    let mut tally = Tally {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Tally::default()
    };
    for &site in &study.sites {
        for link in 0..LINKS {
            let cell = span::in_scope("push.cell_setup", || study.cell(site, link));
            for policy in 0..POLICIES {
                for load in 0..loads {
                    if tally.ops == limit {
                        return tally;
                    }
                    let _op = span::op("op", tally.ops as u32);
                    let result = study.load(&cell, policy, load, observer);
                    fnv(&mut tally.digest, &[u8::from(result.complete)]);
                    fnv(&mut tally.digest, &result.promised.to_le_bytes());
                    fnv(&mut tally.digest, &result.delivered.to_le_bytes());
                    tally.ops += 1;
                    tally.promised += result.promised;
                    tally.delivered += result.delivered;
                }
            }
        }
    }
    tally
}
