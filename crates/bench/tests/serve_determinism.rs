//! End-to-end determinism suite for the serve daemon: the same records
//! and seed must produce byte-identical responses at any worker count,
//! with metrics on or off, and with
//! hostile clients interleaved — and the queries must demonstrably ride
//! the real HTTP/2 stack (frame counters, not function calls).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use h2campaign::{finalize, CampaignMeta, CampaignRow, RecordWriter};
use h2obs::{frame_slot, Obs};
use h2ready_bench::serve::{run_serve, QueryResult, ServeConfig};
use webpop::{ExperimentSpec, Population};

/// Builds the rows for one fixture campaign: a contiguous slice of the
/// h2 population, surveyed through the real probe stack.
fn fixture_rows(skip: u64, take: u64) -> (Population, Vec<CampaignRow>) {
    let population = Population::new(ExperimentSpec::first(), 0.0005);
    let scope = h2scope::H2Scope::new();
    let end = (skip + take).min(population.h2_count());
    let rows: Vec<CampaignRow> = (skip.min(end)..end)
        .map(|i| {
            let site = population.site(i);
            CampaignRow {
                index: i,
                family: site.family,
                report: scope.survey(&site.target()),
            }
        })
        .collect();
    (population, rows)
}

/// Writes one finalized fixture record to `path`.
fn write_record(path: &Path, label: &str, skip: u64, take: u64) {
    let (population, rows) = fixture_rows(skip, take);
    let mut meta = CampaignMeta::describe(&population, "none", 0);
    meta.label = label.to_string();
    meta.sites = rows.len() as u64;
    RecordWriter::create(path, &meta).expect("create record");
    finalize(path, &meta, &rows).expect("finalize record");
}

/// Two finalized fixture records (6 and 8 sites, so diffs have both
/// shared and exclusive sites), written once per test process.
fn fixture_records() -> &'static [PathBuf] {
    static RECORDS: OnceLock<Vec<PathBuf>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("h2serve-determinism-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let a = dir.join("jul-2016.h2c");
        let b = dir.join("jan-2017.h2c");
        write_record(&a, "jul-2016", 0, 6);
        write_record(&b, "jan-2017", 0, 8);
        vec![a, b]
    })
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(fixture_records().to_vec());
    cfg.queries = 1200;
    cfg
}

/// Status and body only — latency is virtual-time metadata and may
/// legitimately shift with connection reuse patterns across worker
/// counts; the determinism guarantee is about response *bytes*.
fn bodies(responses: &[QueryResult]) -> Vec<(&str, &[u8])> {
    responses
        .iter()
        .map(|r| (r.status.as_str(), r.body.as_slice()))
        .collect()
}

#[test]
fn responses_byte_identical_across_worker_counts() {
    let baseline = {
        let mut cfg = config();
        cfg.workers = 1;
        run_serve(&cfg).expect("1-worker run")
    };
    assert_eq!(baseline.responses.len(), 1200);
    assert!(
        baseline.responses.iter().any(|r| r.status == "200"),
        "trace should contain answerable queries"
    );
    assert!(
        baseline.responses.iter().any(|r| r.status == "404"),
        "trace should contain missing-site queries"
    );
    for workers in [2usize, 8] {
        let mut cfg = config();
        cfg.workers = workers;
        let outcome = run_serve(&cfg).expect("multi-worker run");
        assert_eq!(
            outcome.digest, baseline.digest,
            "digest diverged at {workers} workers"
        );
        assert_eq!(
            bodies(&outcome.responses),
            bodies(&baseline.responses),
            "responses diverged at {workers} workers"
        );
    }
}

#[test]
fn hostile_clients_cannot_perturb_responses() {
    let mut calm = config();
    calm.workers = 2;
    let baseline = run_serve(&calm).expect("calm run");

    let mut stormy = config();
    stormy.workers = 2;
    stormy.hostile = true;
    let outcome = run_serve(&stormy).expect("hostile run");
    assert!(
        !outcome.hostiles.is_empty(),
        "hostile mode must actually interleave attacks"
    );
    let vectors: Vec<&str> = outcome.hostiles.iter().map(|h| h.vector).collect();
    assert!(vectors.contains(&"slow_read"), "{vectors:?}");
    assert!(vectors.contains(&"rapid_reset"), "{vectors:?}");
    for h in &outcome.hostiles {
        // The serve profile reaps stalled connections after 30s (the
        // slow reader goes silent for 90) and GOAWAYs after 32 resets
        // (rapid reset sends 48 pairs).
        assert!(h.defended, "{} engagement went undefended", h.vector);
    }
    assert_eq!(outcome.digest, baseline.digest);
    assert_eq!(bodies(&outcome.responses), bodies(&baseline.responses));

    // The hostile log itself is an output: shards report in worker
    // order, never in the order their threads happened to finish. Long
    // enough a trace that every shard alternates both vectors.
    let mut wide = config();
    wide.workers = 4;
    wide.queries = 4096;
    wide.hostile = true;
    let log = |cfg: &ServeConfig| -> Vec<(&'static str, bool)> {
        let outcome = run_serve(cfg).expect("4-worker hostile run");
        outcome
            .hostiles
            .iter()
            .map(|h| (h.vector, h.defended))
            .collect()
    };
    let first = log(&wide);
    assert!(first.len() > wide.workers, "{first:?}");
    assert_eq!(first, log(&wide), "hostile log depends on scheduling");
    // Each shard alternates its two vectors, so in worker order a vector
    // can only repeat where one shard's run ends and the next begins.
    let repeats = first.windows(2).filter(|w| w[0].0 == w[1].0).count();
    assert!(repeats < wide.workers, "shards interleaved: {first:?}");
}

#[test]
fn queries_traverse_the_h2_stack_and_metrics_change_nothing() {
    let quiet = {
        let mut cfg = config();
        cfg.workers = 2;
        run_serve(&cfg).expect("metrics-off run")
    };

    let obs = Obs::campaign(0);
    let mut cfg = config();
    cfg.workers = 2;
    cfg.obs = obs.clone();
    let outcome = run_serve(&cfg).expect("metrics-on run");
    assert_eq!(
        outcome.digest, quiet.digest,
        "metrics must not change a single response byte"
    );

    let snap = obs.snapshot().expect("campaign obs is on");
    // Every query was counted at the serve path...
    assert_eq!(snap.lookups, 1200);
    assert_eq!(snap.cache_hits + snap.cache_misses, 1200);
    assert_eq!(snap.query_latency.count, 1200);
    assert!(snap.bytes_served > 0);
    // ...and demonstrably rode the wire: the simulated server cores
    // handled at least one HEADERS frame per query (the request), and
    // the clients saw response HEADERS and DATA come back as frames.
    let headers = frame_slot(0x1);
    let data = frame_slot(0x0);
    assert!(
        snap.server_handled[headers] >= 1200,
        "server cores must decode one HEADERS per query, saw {}",
        snap.server_handled[headers]
    );
    assert!(
        snap.client_received[headers] >= 1200,
        "clients must receive response HEADERS as frames"
    );
    assert!(
        snap.client_received[data] > 0,
        "response bodies must arrive as DATA frames"
    );
}

#[test]
fn bad_records_map_to_distinct_exit_codes() {
    let records = fixture_records();
    let dir = std::env::temp_dir().join(format!("h2serve-badrec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bad-record dir");

    // Unfinalized: header + rows, no end| trailer.
    let unfinalized = dir.join("partial.h2c");
    {
        let (population, rows) = fixture_rows(0, 3);
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        meta.sites = 6;
        let writer = RecordWriter::create(&unfinalized, &meta).expect("create");
        for row in &rows {
            writer.append(row).expect("append");
        }
    }
    let cfg = ServeConfig::new(vec![records[0].clone(), unfinalized]);
    let err = run_serve(&cfg).expect_err("partial record must be rejected");
    assert_eq!(err.exit_code(), 4, "{err}");

    // Checksum mismatch: flip a row byte after finalization.
    let corrupt = dir.join("corrupt.h2c");
    let text = std::fs::read_to_string(&records[0]).expect("read fixture");
    std::fs::write(&corrupt, text.replacen("alpn=1", "alpn=0", 1)).expect("write corrupt");
    let err = run_serve(&ServeConfig::new(vec![corrupt])).expect_err("corrupt record");
    assert_eq!(err.exit_code(), 6, "{err}");

    // Unreadable: no such file.
    let err =
        run_serve(&ServeConfig::new(vec![dir.join("absent.h2c")])).expect_err("missing record");
    assert_eq!(err.exit_code(), 2, "{err}");
}
