//! `h2bench-layers` — the per-layer half of the repo's benchmark.
//!
//! Where the end-to-end driver measures the `repro` binary from outside,
//! this harness calls the product crates' public functions in process:
//! unit rows and reference composites that cost the same whatever the
//! workload (`micro`), then the chosen workload re-driven with a span
//! around every call into a layer and once more with `Obs::campaign(0)`
//! on for exact counts (`passes`). Spans live in this package's files
//! only; spans inside the program are a later change (ROADMAP item 5).
//!
//! Started by `h2bench-e2e` for `--trace 1`; prints one
//! `metric <name> <value> <unit>` line per metric on stdout and writes
//! the spans to `<out>/trace-<workload>.json`.

mod adapter;
mod alloc;
mod micro;
mod passes;
mod span;
#[allow(dead_code)] // `median` and `quartiles` are used by the end-to-end driver only
#[path = "../../common/stats.rs"]
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use adapter::{Counts, FrameClass};
use passes::{Inputs, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Options {
    workload: Workload,
    workload_name: String,
    seed: u64,
    quick: bool,
    out: PathBuf,
    records: Vec<PathBuf>,
    e2e_cpu_us_per_op: f64,
    e2e_ops: u64,
    scan_scale: f64,
    queries: u64,
    push_sites: usize,
    push_loads: usize,
}

const USAGE: &str = "usage: h2bench-layers --workload W --seed N --out DIR --records A B \
                     --e2e-cpu-us-per-op X --e2e-ops N --scan-scale S --queries N \
                     --push-sites N --push-loads N [--quick]";

fn parse_args() -> Result<Options, String> {
    let (mut workload, mut seed, mut out, mut cpu, mut ops) = (None, None, None, None, None);
    let (mut scale, mut queries, mut sites, mut loads) = (None, None, None, None);
    let (mut quick, mut records) = (false, Vec::new());
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().ok(),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--e2e-cpu-us-per-op" => cpu = value()?.parse().ok(),
            "--e2e-ops" => ops = value()?.parse().ok(),
            "--scan-scale" => scale = value()?.parse().ok(),
            "--queries" => queries = value()?.parse().ok(),
            "--push-sites" => sites = value()?.parse().ok(),
            "--push-loads" => loads = value()?.parse().ok(),
            "--quick" => quick = true,
            "--records" => {
                while let Some(path) = args.next_if(|a| !a.starts_with("--")) {
                    records.push(PathBuf::from(path));
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload_name = workload.ok_or(USAGE)?;
    if records.len() < 2 {
        return Err(format!(
            "--records needs the two finalized campaign records\n{USAGE}"
        ));
    }
    Ok(Options {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name:?}"))?,
        workload_name,
        seed: seed.ok_or(USAGE)?,
        quick,
        out: out.ok_or(USAGE)?,
        records,
        e2e_cpu_us_per_op: cpu.ok_or(USAGE)?,
        e2e_ops: ops.ok_or(USAGE)?,
        scan_scale: scale.ok_or(USAGE)?,
        queries: queries.ok_or(USAGE)?,
        push_sites: sites.ok_or(USAGE)?,
        push_loads: loads.ok_or(USAGE)?,
    })
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        // The workload never touches this layer; 0 says so.
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Σ count × unit cost over h2wire, h2hpack, h2conn, netsim and h2server,
/// in nanoseconds per pass: how much of a workload the unit rows explain.
///
/// The cut is chosen so that no work is counted twice. Client side: frame
/// encode/decode and HPACK, per frame and per block. Server side: the
/// inclusive cost of a small request, plus DATA pumped per KiB, plus the
/// connection core's receive step for every other client frame. Network:
/// a small round trip per client segment plus a per-KiB share of the bulk
/// one. Per connection: pipe, server and greeting.
fn model_ns(unit: &dyn Fn(&str) -> f64, counts: &Counts) -> f64 {
    let class_cost = |prefix: &str, n: &[u64; 3]| -> f64 {
        FrameClass::ALL
            .iter()
            .map(|&c| n[c as usize] as f64 * unit(&format!("{prefix}.{}", c.name())))
            .sum()
    };
    // The first block of a connection meets a fresh table, the rest a warm one.
    let cold_warm = |blocks: u64, cold: &str, warm: &str| -> f64 {
        let first = blocks.min(counts.conns);
        first as f64 * unit(cold) + (blocks - first) as f64 * unit(warm)
    };
    let per_conn =
        unit("netsim.connect_ns") + unit("h2server.new_ns") + unit("h2server.greeting_ns");
    let client = class_cost("h2wire.encode_ns", &counts.frames_sent)
        + class_cost("h2wire.decode_ns", &counts.frames_received)
        + cold_warm(
            counts.request_blocks,
            "h2hpack.encode_ns.request",
            "h2hpack.encode_ns.request_warm",
        )
        + cold_warm(
            counts.response_blocks,
            "h2hpack.decode_ns.response",
            "h2hpack.decode_ns.response_warm",
        );
    let other_client_frames = counts.frames_sent[FrameClass::Control as usize]
        + counts.frames_sent[FrameClass::Data as usize];
    let server = counts.request_blocks as f64 * unit("h2server.request_ns.small")
        + counts.bytes_to_client as f64 / 1024.0 * unit("h2server.pump_ns_per_kib")
        + other_client_frames as f64 * unit("h2conn.recv_ns_per_frame");
    // WINDOW_UPDATEs travel in pairs; everything else is its own segment.
    let segments = counts.frames_sent.iter().sum::<u64>() - counts.window_updates_sent / 2;
    let bulk_ns_per_kib =
        (unit("netsim.roundtrip_ns.bulk") - unit("netsim.roundtrip_ns.small")) / 128.0;
    let network = segments as f64 * unit("netsim.roundtrip_ns.small")
        + counts.wire_bytes as f64 / 1024.0 * bulk_ns_per_kib.max(0.0);
    counts.conns as f64 * per_conn + client + server + network
}

fn run(options: &Options) -> Result<Vec<Metric>, String> {
    let size = if options.quick {
        &passes::QUICK
    } else {
        &passes::FULL
    };
    eprintln!("[layers] unit rows and reference composites");
    let mut metrics = micro::rows(
        size,
        options.seed,
        &options.records,
        options.out.join("layers-scratch.h2c"),
    );

    let inputs = Inputs {
        scan_scale: options.scan_scale,
        queries: options.queries,
        push_sites: options.push_sites,
        push_loads: options.push_loads,
        seed: options.seed,
        dir: &options.out,
        records: &options.records,
    };
    eprintln!("[layers] {}: decomposed pass", options.workload_name);
    let decomposed = passes::decomposed(options.workload, &inputs);
    eprintln!(
        "[layers] {}: counts pass and drift guards",
        options.workload_name
    );
    let (tally, sites, counts) = passes::counted(options.workload, &inputs);

    // Drift guards: the decomposed pass did the end-to-end run's work, and
    // did what the product's own entry points do.
    if decomposed.tally.ops != options.e2e_ops {
        return Err(format!(
            "drift: the decomposed pass made {} ops, the end-to-end run {}",
            decomposed.tally.ops, options.e2e_ops
        ));
    }
    if decomposed.tally != tally {
        return Err(format!(
            "drift: decomposed and product passes disagree: {:?} vs {tally:?}",
            decomposed.tally
        ));
    }
    if let Some(i) = (0..sites.len()).find(|&i| !sites[i].same_report(&decomposed.sites[i])) {
        return Err(format!(
            "drift: decomposed survey != product survey at site {i}"
        ));
    }

    let ops = tally.ops;
    let decomposed_us_per_op = decomposed.wall_ns as f64 / 1e3 / ops as f64;
    let frames =
        counts.frames_sent.iter().sum::<u64>() + counts.frames_received.iter().sum::<u64>();
    let data_frames = counts.frames_sent[FrameClass::Data as usize]
        + counts.frames_received[FrameClass::Data as usize];
    let model_us_per_op = {
        let unit = |name: &str| -> f64 {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("the model needs unit row {name}"))
                .value
        };
        model_ns(&unit, &counts) / 1e3 / ops as f64
    };
    let mut row =
        |name: &str, value: f64, unit: &'static str| metrics.push(Metric::new(name, value, unit));
    row(
        "h2scope.attempts_per_site",
        ratio(tally.attempts, tally.sites),
        "count",
    );
    row(
        "h2scope.ok_sites_pct",
        ratio(tally.ok_sites, tally.sites) * 100.0,
        "%",
    );
    row(
        "h2fault.retries_per_site",
        ratio(counts.retries, tally.sites),
        "count",
    );
    row(
        "h2fault.timeouts_per_site",
        ratio(counts.timeouts, tally.sites),
        "count",
    );
    row("netsim.conns_per_op", ratio(counts.conns, ops), "count");
    row(
        "netsim.wire_kb_per_op",
        ratio(counts.wire_bytes, ops) / 1024.0,
        "KB",
    );
    row(
        "netsim.virtual_ms_per_op",
        ratio(counts.virtual_ns, ops) / 1e6,
        "ms",
    );
    row("h2wire.frames_per_op", ratio(frames, ops), "count");
    row(
        "h2wire.data_frames_per_op",
        ratio(data_frames, ops),
        "count",
    );
    row(
        "h2hpack.blocks_per_op",
        ratio(counts.request_blocks + counts.response_blocks, ops),
        "count",
    );
    row(
        "h2hpack.evictions_per_op",
        ratio(counts.hpack_evictions, ops),
        "count",
    );
    row(
        "h2server.frames_handled_per_op",
        ratio(counts.server_frames, ops),
        "count",
    );
    row(
        "h2server.push_delivered_pct",
        ratio(tally.delivered, tally.promised) * 100.0,
        "%",
    );
    row(
        "h2serve.cache_hit_pct",
        ratio(tally.cache_hits, tally.cache_hits + tally.cache_misses) * 100.0,
        "%",
    );
    row(
        "trace.coverage_pct",
        span::coverage_pct(&decomposed.spans),
        "%",
    );
    row(
        "trace.vs_e2e_pct",
        decomposed_us_per_op / options.e2e_cpu_us_per_op * 100.0,
        "%",
    );
    row(
        "trace.model_explained_pct",
        model_us_per_op / decomposed_us_per_op * 100.0,
        "%",
    );

    let trace_file = options
        .out
        .join(format!("trace-{}.json", options.workload_name));
    std::fs::write(
        &trace_file,
        span::to_json(&options.workload_name, &decomposed.spans),
    )
    .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!(
        "[layers] {}: {ops} ops, {:.1} us/op decomposed, {} spans in {}",
        options.workload_name,
        decomposed_us_per_op,
        decomposed.spans.len(),
        trace_file.display()
    );
    Ok(metrics)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(metrics) => {
            for m in &metrics {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("h2bench-layers failed: {message}");
            ExitCode::from(1)
        }
    }
}
