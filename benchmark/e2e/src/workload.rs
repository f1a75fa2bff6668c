//! The four workloads: which `repro` command one pass runs, how many
//! operations it must report, and the correctness checks around it.
//!
//! Every pass is a fixed amount of work (fixed ops, not fixed time), so
//! counts and digests stay comparable across commits; `--seconds` only
//! decides how many passes are timed.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::child::{self, Usage};
use crate::parse;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanPlain,
    ScanFlakyRecorded,
    ServeMixed,
    PushPageload,
}

/// Input sizes. A `full` pass runs for about half a second — a tenth of
/// what the issue proposed — because on this host only short passes have
/// a fair chance of running undisturbed (see `PASSES_PER_GROUP`), and the
/// driver's time cap (92 runs in 3420 s) leaves about 15 s per run.
/// `quick` is a fifth of `full`.
struct Size {
    scan_scale: &'static str,
    /// Surveyed h2 sites at `scan_scale`, both experiments: the calibrated
    /// population is 52,300 + 85,000 sites at scale 1.
    scan_sites: u64,
    /// Scale of the recorded campaigns `serve_mixed` serves (and the layer
    /// harness takes its rows from).
    record_scale: &'static str,
    /// Scale of the small scans of the `--threads 2` determinism check.
    check_scale: &'static str,
    queries: u64,
    push_sites: u64,
    push_loads: u64,
}

const FULL: Size = Size {
    scan_scale: "0.005",
    scan_sites: 262 + 425,
    record_scale: "0.01",
    check_scale: "0.002",
    queries: 15_000,
    push_sites: 64,
    push_loads: 1,
};

const QUICK: Size = Size {
    scan_scale: "0.001",
    scan_sites: 52 + 85,
    record_scale: "0.001",
    check_scale: "0.001",
    queries: 3_000,
    push_sites: 12,
    push_loads: 1,
};

/// Links × policies of the push study's grid (`RTT_BANDS` × `BANDWIDTHS`
/// × `PushPolicy::ALL_POLICIES`).
const PUSH_CELLS_PER_SITE: u64 = 3 * 2 * 4;

/// Where and how one workload runs.
pub struct Ctx {
    pub repro: PathBuf,
    /// Scratch directory of this workload; children run with it as cwd.
    pub dir: PathBuf,
    pub seed: u64,
    pub quick: bool,
}

/// One finished, checked pass.
pub struct Pass {
    pub usage: Usage,
    pub ops: u64,
    /// Ops with a useful outcome: site surveyed `ok`, lookup answered,
    /// page load complete.
    pub useful: u64,
    /// FNV-1a over stdout and every artifact file.
    pub digest: u64,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    // Length-delimit so moving a byte between two inputs changes the digest.
    (hash ^ bytes.len() as u64).wrapping_mul(0x0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of `stdout` followed by the bytes of each file.
pub fn digest_outputs(stdout: &str, files: &[PathBuf]) -> Result<u64, String> {
    let mut hash = fnv1a(FNV_OFFSET, stdout.as_bytes());
    for file in files {
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        hash = fnv1a(hash, &bytes);
    }
    Ok(hash)
}

/// A pass is valid only if it reproduces the reference byte for byte and
/// reports exactly the expected operation count.
pub fn verify_pass(pass: &Pass, reference_digest: u64, expected_ops: u64) -> Result<(), String> {
    if pass.ops != expected_ops {
        return Err(format!(
            "product reported {} ops, expected {expected_ops}",
            pass.ops
        ));
    }
    if pass.digest != reference_digest {
        return Err(format!(
            "outputs differ from the warm-up pass (digest {:016x} vs {reference_digest:016x})",
            pass.digest
        ));
    }
    Ok(())
}

struct Finished {
    usage: Usage,
    stdout: String,
    stderr: String,
}

impl Ctx {
    /// Runs `repro` with `args` in the scratch directory; a non-zero exit
    /// is an error carrying the child's last stderr line.
    fn repro(&self, args: &[String]) -> Result<Finished, String> {
        let (out, err) = (self.dir.join("child.out"), self.dir.join("child.err"));
        let usage = child::run(
            Command::new(&self.repro).args(args).current_dir(&self.dir),
            &out,
            &err,
        )
        .map_err(|e| format!("cannot run {}: {e}", self.repro.display()))?;
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let (stdout, stderr) = (read(&out)?, read(&err)?);
        if usage.exit_code != Some(0) {
            return Err(format!(
                "`repro {}` exited with {:?}: {}",
                args.join(" "),
                usage.exit_code,
                stderr.lines().last().unwrap_or("(no stderr)")
            ));
        }
        Ok(Finished {
            usage,
            stdout,
            stderr,
        })
    }

    /// Finalized records must load through the product's validated path:
    /// `repro diff A A` exits 0 only for an intact, checksummed record.
    fn records_load(&self, records: &[PathBuf]) -> Result<(), String> {
        for record in records {
            let path = record.display().to_string();
            self.repro(&strings(&["diff", &path, &path]))?;
        }
        Ok(())
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// `repro adoption` over both campaigns at `scale`, plus `extra` flags.
fn scan_args(scale: &str, threads: &str, extra: &[&str]) -> Vec<String> {
    let mut args = strings(&[
        "adoption",
        "--scale",
        scale,
        "--exp",
        "both",
        "--threads",
        threads,
    ]);
    args.extend(strings(extra));
    args
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScanPlain,
        Workload::ScanFlakyRecorded,
        Workload::ServeMixed,
        Workload::PushPageload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanPlain => "scan_plain",
            Workload::ScanFlakyRecorded => "scan_flaky_recorded",
            Workload::ServeMixed => "serve_mixed",
            Workload::PushPageload => "push_pageload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn size(quick: bool) -> &'static Size {
        if quick {
            &QUICK
        } else {
            &FULL
        }
    }

    /// Operations one pass must report.
    pub fn expected_ops(self, quick: bool) -> u64 {
        let size = Workload::size(quick);
        match self {
            Workload::ScanPlain | Workload::ScanFlakyRecorded => size.scan_sites,
            Workload::ServeMixed => size.queries,
            Workload::PushPageload => size.push_sites * PUSH_CELLS_PER_SITE * size.push_loads,
        }
    }

    /// The input sizes, as the layer harness takes them: it re-drives the
    /// same work, so it is told the sizes rather than keeping a copy.
    pub fn layer_args(quick: bool) -> Vec<String> {
        let size = Workload::size(quick);
        strings(&[
            "--scan-scale",
            size.scan_scale,
            "--queries",
            &size.queries.to_string(),
            "--push-sites",
            &size.push_sites.to_string(),
            "--push-loads",
            &size.push_loads.to_string(),
        ])
    }

    /// The `repro` command line of one pass.
    fn pass_args(self, ctx: &Ctx) -> Vec<String> {
        let size = Workload::size(ctx.quick);
        let (seed, threads) = (ctx.seed.to_string(), "1");
        match self {
            // The calibrated population is the input; the seed is unused.
            Workload::ScanPlain => scan_args(size.scan_scale, threads, &[]),
            Workload::ScanFlakyRecorded => scan_args(
                size.scan_scale,
                threads,
                &["--faults", "flaky", "--seed", &seed, "--record", "f.h2c"],
            ),
            Workload::ServeMixed => strings(&[
                "serve",
                "s.experiment-1.h2c",
                "s.experiment-2.h2c",
                "--threads",
                threads,
                "--queries",
                &size.queries.to_string(),
                "--seed",
                &seed,
            ]),
            Workload::PushPageload => strings(&[
                "push-study",
                "--scale",
                "0.02",
                "--sites",
                &size.push_sites.to_string(),
                "--loads",
                &size.push_loads.to_string(),
                "--threads",
                threads,
                "--seed",
                &seed,
                "--out-dir",
                ".",
            ]),
        }
    }

    /// Files a pass reads or writes that must stay byte-identical.
    fn artifacts(self, ctx: &Ctx) -> Vec<PathBuf> {
        let names: &[&str] = match self {
            Workload::ScanPlain => &[],
            Workload::ScanFlakyRecorded => &["f.experiment-1.h2c", "f.experiment-2.h2c"],
            Workload::ServeMixed => &["s.experiment-1.h2c", "s.experiment-2.h2c"],
            Workload::PushPageload => &["PUSH_campaign.json"],
        };
        names.iter().map(|n| ctx.dir.join(n)).collect()
    }

    /// `(ops, useful)` from the product's own lines.
    fn outcome(self, stdout: &str, stderr: &str) -> Result<(u64, u64), String> {
        let missing = |what: &str| format!("{}: no `{what}` line in the output", self.name());
        match self {
            Workload::ScanPlain => {
                // No fault plan, no deadlines: every surveyed site is `ok`.
                let sites =
                    parse::scanned_sites(stderr).ok_or_else(|| missing("scanned N h2 sites"))?;
                Ok((sites, sites))
            }
            Workload::ScanFlakyRecorded => {
                let sites =
                    parse::scanned_sites(stderr).ok_or_else(|| missing("scanned N h2 sites"))?;
                let (scanned, ok) =
                    parse::resilience(stdout).ok_or_else(|| missing("sites scanned / ok"))?;
                if scanned != sites {
                    return Err(format!(
                        "resilience section counts {scanned} sites, the scan loop {sites}"
                    ));
                }
                Ok((sites, ok))
            }
            Workload::ServeMixed => {
                // An intended 404 is an answer; only an unanswered lookup fails.
                let answered =
                    parse::queries_answered(stdout).ok_or_else(|| missing("N queries answered"))?;
                Ok((answered, answered))
            }
            Workload::PushPageload => {
                let (complete, stalled) =
                    parse::push_loads(stdout).ok_or_else(|| missing("loads/stalled"))?;
                Ok((complete + stalled, complete))
            }
        }
    }

    /// One timed (or warm-up) pass.
    pub fn pass(self, ctx: &Ctx) -> Result<Pass, String> {
        let done = ctx.repro(&self.pass_args(ctx))?;
        let (ops, useful) = self.outcome(&done.stdout, &done.stderr)?;
        let digest = digest_outputs(&done.stdout, &self.artifacts(ctx))?;
        Ok(Pass {
            usage: done.usage,
            ops,
            useful,
            digest,
        })
    }

    /// Set-up: input preparation by the product itself, the set-up-time
    /// correctness checks, and one discarded warm-up pass whose outputs
    /// become the reference every timed pass must reproduce.
    pub fn set_up(self, ctx: &Ctx) -> Result<Pass, String> {
        match self {
            Workload::ScanPlain => {
                threads_do_not_change_output(ctx)?;
                self.pass(ctx)
            }
            Workload::ScanFlakyRecorded => {
                let warm = self.pass(ctx)?;
                ctx.records_load(&self.artifacts(ctx))?;
                Ok(warm)
            }
            Workload::ServeMixed => {
                record_campaigns(ctx)?;
                self.pass(ctx)
            }
            Workload::PushPageload => self.pass(ctx),
        }
    }
}

/// Records the two finalized campaigns (`s.experiment-{1,2}.h2c`) that
/// `serve_mixed` serves and the layer harness takes its rows from, and
/// checks that they load.
pub fn record_campaigns(ctx: &Ctx) -> Result<Vec<PathBuf>, String> {
    let scale = Workload::size(ctx.quick).record_scale;
    ctx.repro(&scan_args(scale, "1", &["--record", "s.h2c"]))?;
    let records = Workload::ServeMixed.artifacts(ctx);
    ctx.records_load(&records)?;
    Ok(records)
}

/// The same small scan on one and on two worker threads must print the
/// same bytes, the `threads=` header token aside.
fn threads_do_not_change_output(ctx: &Ctx) -> Result<(), String> {
    let scale = Workload::size(ctx.quick).check_scale;
    let scan = |threads: &str| ctx.repro(&scan_args(scale, threads, &[]));
    let (one, two) = (scan("1")?, scan("2")?);
    if parse::normalize_threads(&one.stdout) != parse::normalize_threads(&two.stdout) {
        return Err("--threads 2 output differs beyond the threads= header".to_string());
    }
    Ok(())
}

/// The scheduler guard: the `scan_plain` pass at one and two worker
/// threads, two alternating pairs, the faster of each side. Returns
/// `(cpu_inflation_pct, wall_speedup)`.
pub fn sched_guard(ctx: &Ctx) -> Result<(f64, f64), String> {
    let scale = Workload::size(ctx.quick).scan_scale;
    let run = |threads: &str| Ok::<_, String>(ctx.repro(&scan_args(scale, threads, &[]))?.usage);
    let faster = |a: Usage, b: Usage| Usage {
        wall_s: a.wall_s.min(b.wall_s),
        cpu_s: a.cpu_s.min(b.cpu_s),
        ..a
    };
    let (one, two) = (run("1")?, run("2")?);
    let (one, two) = (faster(one, run("1")?), faster(two, run("2")?));
    Ok((
        (two.cpu_s / one.cpu_s - 1.0) * 100.0,
        one.wall_s / two.wall_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(ops: u64, digest: u64) -> Pass {
        Pass {
            usage: Usage {
                exit_code: Some(0),
                wall_s: 1.0,
                cpu_s: 1.0,
                max_rss_kb: 1024,
            },
            ops,
            useful: ops,
            digest,
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("scan"), None);
    }

    #[test]
    fn expected_ops_follow_the_sizes() {
        assert_eq!(Workload::ScanPlain.expected_ops(false), 687);
        assert_eq!(Workload::ServeMixed.expected_ops(false), 15_000);
        assert_eq!(Workload::PushPageload.expected_ops(false), 64 * 24);
        assert_eq!(Workload::PushPageload.expected_ops(true), 12 * 24);
    }

    #[test]
    fn a_record_truncated_between_passes_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("h2bench-truncate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let record = dir.join("f.experiment-1.h2c");
        let content =
            "h2campaign-v1\nr|i=0|f=tail|site=site-0.top1m\nend|rows=1|checksum=855ef6cbc0c9c339\n";
        std::fs::write(&record, content).expect("write record");
        let files = vec![record.clone()];
        let reference = digest_outputs("stdout\n", &files).expect("digest");
        assert!(verify_pass(&pass(10, reference), reference, 10).is_ok());

        std::fs::write(&record, &content[..content.len() - 20]).expect("truncate record");
        let truncated = digest_outputs("stdout\n", &files).expect("digest");
        let err = verify_pass(&pass(10, truncated), reference, 10).expect_err("must fail");
        assert!(err.contains("differ from the warm-up pass"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_short_pass_fails_the_run() {
        let err = verify_pass(&pass(9, 1), 1, 10).expect_err("must fail");
        assert!(err.contains("9 ops, expected 10"), "{err}");
    }

    #[test]
    fn digest_separates_its_inputs() {
        let dir = std::env::temp_dir().join(format!("h2bench-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("a");
        std::fs::write(&file, "bc").expect("write");
        let one = digest_outputs("a", std::slice::from_ref(&file)).expect("digest");
        std::fs::write(&file, "c").expect("write");
        let two = digest_outputs("ab", std::slice::from_ref(&file)).expect("digest");
        assert_ne!(one, two);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcomes_come_from_product_lines() {
        let flaky_out = "Scan resilience\n  sites scanned      523\n  ok                 401\n";
        let flaky_err = "[experiment-1] scanned 523 h2 sites in 0.5s\n";
        assert_eq!(
            Workload::ScanFlakyRecorded.outcome(flaky_out, flaky_err),
            Ok((523, 401))
        );
        assert!(Workload::ScanFlakyRecorded
            .outcome(flaky_out, "[experiment-1] scanned 500 h2 sites in 0.5s\n")
            .is_err());
        assert!(Workload::ServeMixed.outcome("", "").is_err());
    }
}
