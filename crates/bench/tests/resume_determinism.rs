//! The campaign record's crash-safety contract, end to end: a scan that
//! is killed at an arbitrary point and resumed — possibly at a different
//! thread count — finalizes a record byte-identical to an uninterrupted
//! run. Rows depend only on `(population, index)` and the finalized
//! bytes only on `(meta, row set)`, so nothing about scheduling, crash
//! timing or worker count may leak into the record.

use std::path::{Path, PathBuf};

use h2fault::{splitmix64, FaultProfile, KillPoint};
use h2obs::Obs;
use h2ready_bench::scan::{Campaign, RecordedScan};
use webpop::{ExperimentSpec, Population};

const SCALE: f64 = 0.004;
const SEED: u64 = 11;

fn population() -> Population {
    Population::new(ExperimentSpec::first(), SCALE)
}

/// A collision-free scratch path inside the build's temp dir.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("h2ready-resume-{}-{tag}.h2c", std::process::id()))
}

/// The campaign every test here records: the flaky profile under `SEED`.
fn flaky(population: &Population, threads: usize) -> Campaign<'_> {
    Campaign {
        faults: FaultProfile::flaky(),
        seed: SEED,
        ..Campaign::new(population, threads)
    }
}

fn record_uninterrupted(path: &Path, threads: usize) -> Vec<h2campaign::CampaignRow> {
    let outcome = flaky(&population(), threads)
        .scan_recorded(path, false, None)
        .expect("recorded scan");
    match outcome {
        RecordedScan::Complete { records, resumed } => {
            assert_eq!(resumed, 0, "fresh run resumed nothing");
            records
        }
        RecordedScan::Killed { .. } => panic!("no kill point was set"),
    }
}

#[test]
fn killed_and_resumed_records_are_byte_identical_to_uninterrupted() {
    let golden_path = scratch("golden");
    record_uninterrupted(&golden_path, 1);
    let golden = std::fs::read(&golden_path).expect("golden bytes");

    let total = population().h2_count();
    // Three kill points — early, midway and one row short of complete,
    // where resume bookkeeping is most likely to be wrong — each killed at
    // one thread count and resumed at another. The seed moves the early
    // point, so different campaigns don't all crash on the same row.
    let early = 1 + splitmix64(SEED ^ 0x4b11) % (total / 4).max(1);
    let kills = [early, (total / 2).max(1), total.saturating_sub(1).max(1)];
    for (k, kill) in kills.map(KillPoint::after).into_iter().enumerate() {
        for (kill_threads, resume_threads) in [(1, 4), (4, 1)] {
            let path = scratch(&format!("kill{k}-t{kill_threads}"));
            let outcome = flaky(&population(), kill_threads)
                .scan_recorded(&path, false, Some(kill))
                .expect("killed scan");
            let rows = match outcome {
                RecordedScan::Killed { rows } => rows,
                RecordedScan::Complete { .. } => panic!("kill point did not fire"),
            };
            assert!(rows >= kill.after_rows, "durable rows reach the kill point");
            // In-flight sites (at most one per extra worker) may still
            // land after the kill fires; only a kill point with enough
            // headroom is guaranteed to leave work behind.
            assert!(rows <= total);
            if kill.after_rows + kill_threads as u64 <= total {
                assert!(rows < total, "the crash left work behind");
            }

            let resumed_outcome = flaky(&population(), resume_threads)
                .scan_recorded(&path, true, None)
                .expect("resumed scan");
            let (records, resumed) = match resumed_outcome {
                RecordedScan::Complete { records, resumed } => (records, resumed),
                RecordedScan::Killed { .. } => panic!("resume had no kill point"),
            };
            assert!(
                resumed >= kill.after_rows,
                "rows were preloaded, not rescanned"
            );
            assert_eq!(records.len() as u64, total);

            let resumed_bytes = std::fs::read(&path).expect("resumed bytes");
            assert_eq!(
                resumed_bytes, golden,
                "kill point {k} at {kill_threads}→{resume_threads} threads diverged"
            );
            std::fs::remove_file(&path).ok();
        }
    }
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn a_partial_whose_row_index_was_flipped_is_refused_and_a_clean_one_resumes() {
    let golden_path = scratch("flip-golden");
    record_uninterrupted(&golden_path, 1);
    let golden = std::fs::read(&golden_path).expect("golden bytes");
    let total = population().h2_count();

    let path = scratch("flip");
    flaky(&population(), 1)
        .scan_recorded(&path, false, Some(KillPoint::after(5)))
        .expect("killed scan");
    let partial = std::fs::read_to_string(&path).expect("partial record");
    let line = 1 + partial
        .lines()
        .position(|l| l.starts_with("r|i=3|"))
        .expect("one worker wrote site 3 before the kill");

    // Out of range used to index past the end of the slot table; an
    // unscanned in-range index used to file site 3's report under it.
    for flipped in [9993, total - 1] {
        let corrupt = partial.replacen("r|i=3|", &format!("r|i={flipped}|"), 1);
        std::fs::write(&path, corrupt).expect("corrupt partial");
        let err = flaky(&population(), 2)
            .scan_recorded(&path, true, None)
            .expect_err("a row that is not its index's site must be refused");
        assert!(
            matches!(err, h2campaign::RecordError::Parse { line: at, .. } if at == line),
            "index {flipped}: {err}"
        );
    }

    for threads in [1, 2, 8] {
        std::fs::write(&path, &partial).expect("clean partial");
        flaky(&population(), threads)
            .scan_recorded(&path, true, None)
            .expect("resumed scan");
        assert_eq!(
            std::fs::read(&path).expect("resumed bytes"),
            golden,
            "clean partial resumed at {threads} threads diverged"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn recorded_scan_returns_the_same_records_as_the_plain_scan() {
    let path = scratch("parity");
    let recorded = record_uninterrupted(&path, 4);
    let plain = flaky(&population(), 2).scan();
    assert_eq!(recorded.len(), plain.len());
    for (a, b) in recorded.iter().zip(&plain) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.family, b.family);
        assert_eq!(a.report, b.report);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resuming_a_finalized_record_is_a_no_op() {
    let path = scratch("noop");
    record_uninterrupted(&path, 2);
    let before = std::fs::read(&path).expect("finalized bytes");
    let obs = Obs::campaign(0);
    let outcome = Campaign {
        obs: obs.clone(),
        ..flaky(&population(), 3)
    }
    .scan_recorded(&path, true, None)
    .expect("resume of finalized record");
    let RecordedScan::Complete { records, resumed } = outcome else {
        panic!("no kill point was set");
    };
    assert_eq!(resumed, population().h2_count());
    assert_eq!(records.len() as u64, resumed);
    assert_eq!(obs.snapshot().expect("on").sites_resumed, resumed);
    assert_eq!(
        std::fs::read(&path).expect("bytes"),
        before,
        "record untouched"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_scan_is_byte_identical_to_single_thread_for_every_campaign_kind() {
    // The sharding contract, pinned at the byte level: per-worker
    // simulators, RNG streams, obs shards and buffer pools may never
    // leak into what a campaign produces. Every campaign kind the
    // engine supports is compared against its single-thread run.
    let population = population();
    let serialize = |records: &[h2campaign::CampaignRow]| {
        h2scope::storage::write_reports(records.iter().map(|r| &r.report))
    };

    let plain_1t = serialize(&Campaign::new(&population, 1).scan());
    for threads in [2, 8, 16] {
        assert_eq!(
            plain_1t,
            serialize(&Campaign::new(&population, threads).scan()),
            "plain scan diverged at {threads} threads"
        );
    }

    let faulted_1t = serialize(&flaky(&population, 1).scan());
    for threads in [2, 8, 16] {
        assert_eq!(
            faulted_1t,
            serialize(&flaky(&population, threads).scan()),
            "faulted scan diverged at {threads} threads"
        );
    }

    let golden_path = scratch("shard-golden");
    record_uninterrupted(&golden_path, 1);
    let recorded_1t = std::fs::read(&golden_path).expect("golden bytes");
    for threads in [2, 8, 16] {
        let path = scratch(&format!("shard-{threads}t"));
        record_uninterrupted(&path, threads);
        assert_eq!(
            recorded_1t,
            std::fs::read(&path).expect("sharded bytes"),
            "recorded campaign diverged at {threads} threads"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&golden_path).ok();
}

#[test]
fn resume_refuses_a_record_from_a_different_campaign() {
    let path = scratch("mismatch");
    record_uninterrupted(&path, 2);
    let err = Campaign {
        seed: SEED + 1, // different campaign seed
        ..flaky(&population(), 2)
    }
    .scan_recorded(&path, true, None)
    .expect_err("seed mismatch must be rejected");
    assert!(err.to_string().contains("seed"), "unhelpful error: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn diff_of_stored_records_matches_the_in_memory_campaign() {
    let path_a = scratch("diff-a");
    let path_b = scratch("diff-b");
    let records_a = record_uninterrupted(&path_a, 2);
    let outcome = flaky(&Population::new(ExperimentSpec::second(), SCALE), 2)
        .scan_recorded(&path_b, false, None)
        .expect("recorded scan");
    let RecordedScan::Complete {
        records: records_b, ..
    } = outcome
    else {
        panic!("no kill point was set");
    };

    let a = h2campaign::read(&path_a).expect("stored a");
    let b = h2campaign::read(&path_b).expect("stored b");
    let diff = h2campaign::diff_records(&a, &b);
    let npn = |records: &[h2campaign::CampaignRow]| {
        records
            .iter()
            .filter(|r| r.report.negotiation.npn_h2)
            .count() as u64
    };
    let adoption = diff
        .adoption
        .iter()
        .find(|d| d.name == "NPN h2")
        .expect("NPN row");
    assert_eq!(adoption.a, npn(&records_a), "stored diff vs in-memory scan");
    assert_eq!(adoption.b, npn(&records_b));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}
