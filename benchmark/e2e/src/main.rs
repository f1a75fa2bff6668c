//! `h2bench-e2e` — the end-to-end half of the repo's benchmark.
//!
//! Drives the release `repro` binary as a child process on four named
//! workloads, checks what it prints and writes, and reports what a user
//! of the CLI pays: work per second, CPU per operation, peak memory,
//! set-up time and the share of operations with a useful outcome. It
//! depends on no product crate, so no internal refactor can break or
//! bypass the gate. Per-layer numbers come from the sibling
//! `h2bench-layers` harness, which this driver runs for `--trace 1`.
//!
//! Started by `benchmark/run.sh`, from the repository root.

mod child;
mod compare;
mod json;
mod parse;
mod result;
mod spec;
#[allow(dead_code)] // `percentile` is used by the layer harness only
#[path = "../../common/stats.rs"]
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use result::{EndToEnd, Host, Layer, RunResult, WorkloadResult};
use spec::Spec;
use workload::{Ctx, Workload};

/// This host runs in two gears: for seconds to minutes at a time the same
/// deterministic pass costs about 1.5x more CPU (contention on the shared
/// core; see the README). A median over passes flips between the gears
/// from run to run. So passes are short, consecutive passes form groups,
/// each group contributes its best pass as one sample, and a run reports
/// the median over samples: a sample is clean when any one pass of its
/// group ran in the fast gear.
const PASSES_PER_GROUP: usize = 4;
/// Fewest samples (groups of passes) of a measuring run.
const MIN_SAMPLES: usize = 5;
/// Set-ups per sample and samples of `setup_s`.
const SET_UPS_PER_GROUP: usize = 2;
const SET_UP_SAMPLES: usize = 2;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] | --compare A B";

struct Options {
    bin_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        bin_dir: PathBuf::from("target/release"),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--bin-dir" => options.bin_dir = PathBuf::from(value("a directory")?),
            "--workload" => {
                let name = value("a workload name")?;
                options.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; known: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                options.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                options.seconds = Some(
                    value("a whole number of seconds")?
                        .parse()
                        .map_err(|_| "--seconds needs a whole number".to_string())?,
                );
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--quick" => options.quick = true,
            "--compare" => {
                options.compare = Some((
                    PathBuf::from(value("two result files")?),
                    PathBuf::from(value("two result files")?),
                ));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(options)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn host_facts() -> Host {
    let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    Host {
        // The driver's checkout is not a git repository; say so, don't fail.
        commit: command_line("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or("unknown".to_string()),
        rustc: command_line("rustc", &["-V"]).unwrap_or("unknown".to_string()),
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        loadavg_1m,
    }
}

/// How much of a workload one invocation measures.
struct Plan {
    set_ups: usize,
    /// Timed passes; `None`: as many groups of [`PASSES_PER_GROUP`] as fit
    /// in `seconds`, at least [`MIN_SAMPLES`] groups.
    passes: Option<usize>,
    seconds: u64,
    layers: bool,
}

fn plan(options: &Options, spec: &Spec) -> Plan {
    let layers = options.trace || options.quick;
    let (set_ups, passes) = if options.quick {
        // A smoke run checks, it does not measure.
        (1, Some(1))
    } else if options.trace && options.workload.is_some() {
        // A driver-style traced run reports per-layer metrics only; its
        // one end-to-end sample is just the yardstick for them.
        (1, Some(PASSES_PER_GROUP))
    } else {
        (SET_UPS_PER_GROUP * SET_UP_SAMPLES, None)
    };
    Plan {
        set_ups,
        passes,
        seconds: options.seconds.unwrap_or(spec.run_seconds),
        layers,
    }
}

/// The best of every `group` consecutive repetitions.
fn group_bests(values: &[f64], group: usize, best: fn(f64, f64) -> f64) -> Vec<f64> {
    values
        .chunks(group)
        .map(|chunk| {
            chunk
                .iter()
                .copied()
                .reduce(best)
                .expect("chunks are never empty")
        })
        .collect()
}

fn run_workload(
    workload: Workload,
    options: &Options,
    spec: &Spec,
    plan: &Plan,
) -> Result<WorkloadResult, String> {
    let dir = Path::new("benchmark/out").join(workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        repro: options.bin_dir.join("repro"),
        dir: dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?,
        seed: options.seed,
        quick: options.quick,
    };
    let expected_ops = workload.expected_ops(options.quick);

    // Set-up, repeated. The first warm-up pass is the reference every
    // later pass must reproduce byte for byte.
    let mut set_up_s = Vec::new();
    let mut reference = None;
    let mut pass_estimate_s = f64::MAX;
    for _ in 0..plan.set_ups {
        let started = Instant::now();
        let warm = workload.set_up(&ctx)?;
        set_up_s.push(started.elapsed().as_secs_f64());
        workload::verify_pass(&warm, *reference.get_or_insert(warm.digest), expected_ops)
            .map_err(|e| format!("{} set-up: {e}", workload.name()))?;
        pass_estimate_s = pass_estimate_s.min(warm.usage.wall_s.max(1e-3));
    }
    let reference = reference.ok_or("a plan has at least one set-up")?;
    let passes = plan.passes.unwrap_or_else(|| {
        let group_s = pass_estimate_s * PASSES_PER_GROUP as f64;
        ((plan.seconds as f64 / group_s) as usize).clamp(MIN_SAMPLES, 50) * PASSES_PER_GROUP
    });

    let (mut ops_per_s, mut cpu_us, mut rss_mb, mut useful) = (vec![], vec![], vec![], vec![]);
    for n in 1..=passes {
        let pass = workload.pass(&ctx)?;
        workload::verify_pass(&pass, reference, expected_ops)
            .map_err(|e| format!("{} pass {n}: {e}", workload.name()))?;
        let ops = pass.ops as f64;
        ops_per_s.push(ops / pass.usage.wall_s);
        cpu_us.push(pass.usage.cpu_s * 1e6 / ops);
        rss_mb.push(pass.usage.max_rss_kb as f64 / 1024.0);
        useful.push(pass.useful as f64 / ops * 100.0);
    }
    let sampled =
        |name: &str, unit: &str, all: Vec<f64>, group: usize, best: fn(f64, f64) -> f64| {
            EndToEnd::median_of(name, unit, group_bests(&all, group, best)).with_all(all)
        };
    let cpu_us_per_op = sampled("cpu_us_per_op", "us", cpu_us, PASSES_PER_GROUP, f64::min);
    let yardstick_us = cpu_us_per_op.reported;
    let end_to_end = vec![
        sampled("setup_s", "s", set_up_s, SET_UPS_PER_GROUP, f64::min),
        sampled("ops_per_s", "1/s", ops_per_s, PASSES_PER_GROUP, f64::max),
        cpu_us_per_op,
        EndToEnd::max_of("peak_rss_mb", "MB", rss_mb),
        EndToEnd::median_of("useful_ops_pct", "%", useful),
    ];
    let declared = spec.end_to_end.iter().map(|m| (&m.name, &m.unit));
    if !end_to_end.iter().map(|m| (&m.name, &m.unit)).eq(declared) {
        return Err(
            "BENCHMARK.json and the harness disagree on the end-to-end metrics".to_string(),
        );
    }
    let per_layer = if plan.layers {
        layers(workload, &ctx, options, spec, yardstick_us, expected_ops)?
    } else {
        Vec::new()
    };
    Ok(WorkloadResult {
        name: workload.name().to_string(),
        ops: expected_ops,
        timed_passes: passes,
        digest: reference,
        end_to_end,
        per_layer,
    })
}

/// The traced run: the scheduler guard through `repro`, then the layer
/// harness on the same inputs; returns every per-layer metric in
/// `BENCHMARK.json` order and fails if the two lists differ.
fn layers(
    workload: Workload,
    ctx: &Ctx,
    options: &Options,
    spec: &Spec,
    e2e_cpu_us_per_op: f64,
    e2e_ops: u64,
) -> Result<Vec<Layer>, String> {
    let records = workload::record_campaigns(ctx)?;
    let (inflation_pct, speedup) = workload::sched_guard(ctx)?;

    let mut command = Command::new(options.bin_dir.join("h2bench-layers"));
    command
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &options.seed.to_string(),
        ])
        .args(["--e2e-cpu-us-per-op", &e2e_cpu_us_per_op.to_string()])
        .args(["--e2e-ops", &e2e_ops.to_string()])
        .args(Workload::layer_args(options.quick))
        .arg("--out")
        .arg(&ctx.dir)
        .arg("--records")
        .args(&records);
    if options.quick {
        command.arg("--quick");
    }
    let (out, err) = (ctx.dir.join("layers.out"), ctx.dir.join("layers.err"));
    let usage = child::run(&mut command, &out, &err)
        .map_err(|e| format!("cannot run h2bench-layers: {e}"))?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    eprint!("{}", read(&err)?);
    if usage.exit_code != Some(0) {
        return Err(format!(
            "h2bench-layers failed on {} (exit {:?}); see {}",
            workload.name(),
            usage.exit_code,
            err.display()
        ));
    }

    let mut measured = vec![
        Layer {
            name: "bench.sched.cpu_inflation_2t_pct".to_string(),
            unit: "%".to_string(),
            value: inflation_pct,
        },
        Layer {
            name: "bench.sched.wall_speedup_2t".to_string(),
            unit: "x".to_string(),
            value: speedup,
        },
    ];
    for line in read(&out)?.lines() {
        let mut fields = line.split(' ');
        if fields.next() != Some("metric") {
            continue;
        }
        let parsed = (|| {
            Some(Layer {
                name: fields.next()?.to_string(),
                value: fields.next()?.parse().ok()?,
                unit: fields.next()?.to_string(),
            })
        })();
        measured.push(parsed.ok_or(format!("h2bench-layers: malformed line {line:?}"))?);
    }

    let mut ordered = Vec::with_capacity(spec.per_layer.len());
    for declared in &spec.per_layer {
        let found = measured
            .iter()
            .position(|m| m.name == declared.name)
            .ok_or(format!(
                "per-layer metric {} was not emitted",
                declared.name
            ))?;
        let metric = measured.swap_remove(found);
        if metric.unit != declared.unit {
            return Err(format!(
                "{}: emitted in {:?}, declared in {:?}",
                metric.name, metric.unit, declared.unit
            ));
        }
        if !metric.value.is_finite() {
            return Err(format!("{} is not finite", metric.name));
        }
        ordered.push(metric);
    }
    if let Some(extra) = measured.first() {
        return Err(format!(
            "{} is emitted but not declared in BENCHMARK.json",
            extra.name
        ));
    }
    Ok(ordered)
}

fn print_workload(w: &WorkloadResult) {
    println!(
        "\n== {}   {} ops/pass, {} timed passes, output digest {:016x}",
        w.name, w.ops, w.timed_passes, w.digest
    );
    for m in &w.end_to_end {
        let (q1, q3) = stats::quartiles(&m.values);
        let all = match m.all.as_slice() {
            [] => String::new(),
            all => format!(
                "; median of all {} repetitions {:.4}",
                all.len(),
                stats::median(all)
            ),
        };
        println!(
            "  {:<16} {:>14.4} {:<4} q1 {:.4}  q3 {:.4}  ({} samples{all})",
            m.name,
            m.reported,
            m.unit,
            q1,
            q3,
            m.values.len()
        );
    }
    for m in &w.per_layer {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The smoke assertions of `--quick` beyond what every run already checks
/// (every declared metric emitted, none undeclared, units matching).
fn smoke_check(results: &[WorkloadResult]) -> Result<(), String> {
    for w in results {
        let named = w
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit, m.reported))
            .chain(w.per_layer.iter().map(|m| (&m.name, &m.unit, m.value)));
        for (name, unit, value) in named {
            if !spec::valid_name(name) || unit.is_empty() || !value.is_finite() {
                return Err(format!(
                    "{}: metric {name:?} ({unit:?}) = {value} is malformed",
                    w.name
                ));
            }
        }
        if w.end_to_end.iter().any(|m| m.reported <= 0.0) {
            return Err(format!("{}: an end-to-end metric is not positive", w.name));
        }
    }
    Ok(())
}

/// The driver's result line: every end-to-end metric, or with `--trace 1`
/// every per-layer metric.
fn result_line(w: &WorkloadResult, trace: bool) -> String {
    let entry = |name: &str, value: f64, unit: &str| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(name),
            json::num(value),
            json::quote(unit)
        )
    };
    let metrics: Vec<String> = if trace {
        w.per_layer
            .iter()
            .map(|m| entry(&m.name, m.value, &m.unit))
            .collect()
    } else {
        w.end_to_end
            .iter()
            .map(|m| entry(&m.name, m.reported, &m.unit))
            .collect()
    };
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        w.ops * w.timed_passes as u64,
        metrics.join(", ")
    )
}

fn run(options: &Options) -> Result<(), String> {
    let spec = Spec::load()?;
    if spec.workloads != Workload::ALL.map(Workload::name) {
        return Err("BENCHMARK.json and the harness disagree on the workload list".to_string());
    }
    let host = host_facts();
    if host.loadavg_1m > 1.0 {
        eprintln!(
            "warning: 1-min load average is {:.2}; timings on a busy host do not repeat",
            host.loadavg_1m
        );
    }
    let plan = plan(options, &spec);
    let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    for workload in workloads {
        let result = run_workload(workload, options, &spec, &plan)?;
        print_workload(&result);
        results.push(result);
    }
    if options.quick {
        smoke_check(&results)?;
        println!("\nquick: every declared metric present, finite and unit-tagged; all checks ran");
    }

    let run = RunResult {
        host,
        seed: options.seed,
        quick: options.quick,
        workloads: results,
    };
    let file = format!(
        "benchmark/out/result-{}-seed{}{}{}.json",
        options.workload.map_or("all", Workload::name),
        options.seed,
        if options.trace { "-trace" } else { "" },
        if options.quick { "-quick" } else { "" },
    );
    std::fs::write(&file, run.to_json()).map_err(|e| format!("{file}: {e}"))?;
    println!("\nwrote {file}");
    if options.workload.is_some() {
        println!("{}", result_line(&run.workloads[0], options.trace));
    }
    Ok(())
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = Spec::load()?;
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| {
                RunResult::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
    };
    Ok(compare::compare(&spec, &load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &options.compare {
        Some((a, b)) => run_compare(a, b),
        None => run(&options).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::from(1)
        }
    }
}
