//! Unit rows and reference composites: what one call into each layer
//! costs, measured the same way in every traced run whatever the workload.
//!
//! Each timed batch makes at least a thousand calls (fewer only where one
//! call runs for tens of microseconds), so the two clock reads around it
//! stay under 1% of what they measure. A row is the fastest batch: the
//! code is deterministic and this host only ever adds time (see the
//! README on its two gears), so the minimum is the estimate least
//! disturbed by it. Composites (percentiles over a replay) come from the
//! faster of two replays. `allocs` rows are exact counts over one
//! extra batch.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{
    self, Campaign, Conn, Daemon, Fetcher, FrameClass, Hpack, Net, Observer, Reports, Scan,
    ServerDrive, SiteGen, Study, SurveyMode, Surveyed, Wire, CONN_BATCH, PROBES,
};
use crate::passes::{self, Size};
use crate::span::{self, Span};
use crate::stats::percentile;
use crate::{alloc, Metric};

/// The rows measured so far, and how many batches each timing takes.
struct Rows {
    out: Vec<Metric>,
    batches: usize,
}

impl Rows {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push(Metric::new(name, value, unit));
    }

    /// Nanoseconds per unit of the fastest timed `run` (which returns how
    /// many units it did), after one warm-up run. `prepare` builds, untimed,
    /// the state each run consumes.
    fn fastest_ns<S>(
        &self,
        mut prepare: impl FnMut() -> S,
        mut run: impl FnMut(&mut S) -> u64,
    ) -> f64 {
        run(&mut prepare());
        (0..self.batches)
            .map(|_| {
                let mut state = prepare();
                let started = Instant::now();
                let units = black_box(run(&mut state));
                started.elapsed().as_nanos() as f64 / units as f64
            })
            .fold(f64::MAX, f64::min)
    }

    fn ns(&mut self, name: &str, mut batch: impl FnMut() -> u64) {
        let ns = self.fastest_ns(|| (), |()| batch());
        self.add(name, ns, "ns");
    }

    fn us(&mut self, name: &str, mut batch: impl FnMut() -> u64) {
        let ns = self.fastest_ns(|| (), |()| batch());
        self.add(name, ns / 1e3, "us");
    }

    fn ns_prepared<S>(
        &mut self,
        name: &str,
        prepare: impl FnMut() -> S,
        run: impl FnMut(&mut S) -> u64,
    ) {
        let ns = self.fastest_ns(prepare, run);
        self.add(name, ns, "ns");
    }

    /// Exact allocations per unit of one warmed batch.
    fn allocs(&mut self, name: &str, mut batch: impl FnMut() -> u64) {
        batch();
        let (units, spent) = alloc::count(&mut batch);
        self.add(name, spent as f64 / units as f64, "count");
    }

    /// `<prefix>_p50` and `<prefix>_p99` over the spans named `span_name`.
    fn percentiles_us(&mut self, prefix: &str, spans: &[Span], span_name: &str) {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span_name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        self.add(&format!("{prefix}_p50"), percentile(&us, 50.0), "us");
        self.add(&format!("{prefix}_p99"), percentile(&us, 99.0), "us");
    }
}

/// Spans of the faster of two recorded runs of `replay` (the first also
/// warms the thread's buffer pools).
fn fastest_replay(mut replay: impl FnMut()) -> Vec<Span> {
    (0..2)
        .map(|_| {
            span::start();
            let started = Instant::now();
            replay();
            (started.elapsed(), span::finish())
        })
        .min_by_key(|(elapsed, _)| *elapsed)
        .expect("two replays")
        .1
}

/// Every workload-independent row. `records` are the finalized campaign
/// records the end-to-end run wrote; `scratch` is a file the h2campaign
/// rows may overwrite.
pub fn rows(size: &Size, seed: u64, records: &[PathBuf], scratch: PathBuf) -> Vec<Metric> {
    let mut rows = Rows {
        out: Vec::new(),
        batches: size.batches,
    };
    webpop(&mut rows);
    let surveyed = survey(&mut rows, size);
    connections(&mut rows);
    page_loads(&mut rows, size, seed);
    let reports = Reports::new(&surveyed);
    rows.ns("h2scope.report_write_ns", || reports.write());
    rows.ns("h2scope.report_read_ns", || reports.read());
    rows.ns("h2fault.injection_ns", || adapter::fault_injections(1_000));
    netsim(&mut rows);
    h2wire(&mut rows);
    h2hpack(&mut rows);
    h2conn(&mut rows);
    let campaign = Campaign::load(records, scratch);
    h2campaign(&mut rows, &campaign);
    let daemon = campaign.daemon(seed, true);
    let trace = h2serve(&mut rows, size, seed, &campaign, &daemon);
    h2server(&mut rows, &daemon, &trace);
    h2obs(&mut rows, size);
    rows.us("h2attack.vector_us", || adapter::attack_vectors(seed));
    rows.out
}

fn webpop(rows: &mut Rows) {
    let sites = SiteGen::new(passes::REFERENCE_SCALE, 100);
    rows.ns("webpop.site_ns", || sites.generate());
    rows.ns("webpop.target_ns", || sites.targets());
    rows.allocs("webpop.allocs_per_site", || sites.generate());
}

/// The survey funnel over the reference sites, decomposed; returns what
/// the product's own survey says of the same sites.
fn survey(rows: &mut Rows, size: &Size) -> Vec<Surveyed> {
    let reference = Scan::reference(passes::REFERENCE_SCALE, size.ref_sites);
    let mut decomposed = Vec::new();
    let spans = fastest_replay(|| {
        decomposed = passes::scan(&reference, None, &Observer::off(), SurveyMode::Decomposed).1;
    });
    let totals = span::totals_by_name(&spans);
    for probe in PROBES {
        let total = totals.get(probe).copied().unwrap_or_default();
        let mean_us = total.total_ns as f64 / total.count.max(1) as f64 / 1e3;
        let name = probe.replace("h2scope.probe.", "h2scope.probe_us.");
        rows.add(&name, mean_us, "us");
    }
    rows.percentiles_us("h2scope.survey_us", &spans, "h2scope.survey");
    // The product's own survey on the same sites: the allocation count,
    // and the drift guard for the decomposition.
    let ((_, product), spent) =
        alloc::count(|| passes::scan(&reference, None, &Observer::off(), SurveyMode::Product));
    assert_eq!(product.len(), decomposed.len());
    for (i, (a, b)) in decomposed.iter().zip(&product).enumerate() {
        assert!(
            a.same_report(b),
            "drift: decomposed survey != H2Scope::survey at reference site {i}"
        );
    }
    let allocs_per_survey = spent as f64 / product.len() as f64;
    rows.add("h2scope.survey_allocs", allocs_per_survey, "count");
    product
}

fn connections(rows: &mut Rows) {
    rows.ns("h2scope.establish_ns", || adapter::establishes(1_000));
    let mut fetcher = Fetcher::new();
    rows.ns("h2scope.fetch_ns", || fetcher.fetches(1_000));
    rows.allocs("h2scope.fetch_allocs", || {
        fetcher.fetches(CONN_BATCH as u64)
    });
}

/// The first page loads of the push study at this seed.
fn page_loads(rows: &mut Rows, size: &Size, seed: u64) {
    let study = Study::new(seed, passes::REFERENCE_PUSH_SITES);
    let replay = || {
        let loads = passes::REFERENCE_PUSH_LOADS;
        passes::push_loads(&study, loads, size.ref_loads, &Observer::off()).ops
    };
    let spans = fastest_replay(|| {
        replay();
    });
    rows.percentiles_us("h2scope.pageload_us", &spans, "h2scope.page_load");
    rows.allocs("h2scope.pageload_allocs", replay);
}

/// Against the harness's own echo endpoint.
fn netsim(rows: &mut Rows) {
    let mut net = Net::new();
    rows.ns("netsim.connect_ns", || net.connects(1_000));
    rows.ns("netsim.roundtrip_ns.small", || net.small_round_trips(1_000));
    rows.ns("netsim.roundtrip_ns.bulk", || net.bulk_round_trips(100));
    rows.ns("netsim.deadline_ns", || net.deadline_expiries(1_000));
    rows.ns("netsim.tls_handshake_ns", || adapter::tls_handshakes(1_000));
    rows.allocs("netsim.allocs_per_roundtrip", || {
        net.small_round_trips(1_000)
    });
}

fn h2wire(rows: &mut Rows) {
    let mut wire = Wire::new();
    for class in FrameClass::ALL {
        // Six control frames a round, one HEADERS or DATA frame.
        let rounds = if class == FrameClass::Control {
            200
        } else {
            1_000
        };
        let name = class.name();
        rows.ns(&format!("h2wire.encode_ns.{name}"), || {
            wire.encode(class, rounds)
        });
        rows.ns(&format!("h2wire.decode_ns.{name}"), || {
            wire.decode(class, rounds)
        });
    }
    rows.allocs("h2wire.decode_allocs_per_frame", || wire.decode_mixed(200));
}

fn h2hpack(rows: &mut Rows) {
    let mut hpack = Hpack::new();
    rows.ns("h2hpack.encode_ns.request", || hpack.encode_cold(1_000));
    rows.ns("h2hpack.encode_ns.request_warm", || {
        hpack.encode_warm(1_000)
    });
    rows.ns("h2hpack.decode_ns.response", || hpack.decode_cold(500));
    rows.ns("h2hpack.decode_ns.response_warm", || hpack.decode_warm(16));
    rows.ns("h2hpack.huffman_encode_ns_per_byte", || {
        hpack.huffman_encode(200)
    });
    rows.ns("h2hpack.huffman_decode_ns_per_byte", || {
        hpack.huffman_decode(200)
    });
    rows.allocs("h2hpack.decode_allocs_per_block", || {
        hpack.decode_cold(16) + hpack.decode_warm(16)
    });
}

fn h2conn(rows: &mut Rows) {
    let conn = Conn::new();
    rows.ns("h2conn.new_ns", || conn.news(1_000));
    rows.ns("h2conn.recv_ns_per_frame", || conn.receive(2));
    rows.ns("h2conn.encode_headers_ns", || conn.encode_headers(1_000));
    rows.ns("h2conn.send_data_ns", || conn.send_data(1_000));
    rows.ns("h2conn.priority_update_ns", || conn.priority_updates(1_000));
    rows.allocs("h2conn.recv_allocs_per_frame", || conn.receive(2));
}

/// Over the rows the end-to-end run recorded.
fn h2campaign(rows: &mut Rows, campaign: &Campaign) {
    rows.ns("h2campaign.append_ns_per_row", || campaign.append());
    rows.ns("h2campaign.finalize_ns_per_row", || campaign.finalize());
    rows.ns("h2campaign.load_ns_per_row", || campaign.load_last());
    rows.ns("h2campaign.diff_ns_per_row", || campaign.diff());
    rows.add("h2campaign.bytes_per_row", campaign.round_trip(), "B");
}

/// The handler called directly, then whole lookups over the wire; returns
/// the query trace it replayed a prefix of.
fn h2serve(
    rows: &mut Rows,
    size: &Size,
    seed: u64,
    campaign: &Campaign,
    daemon: &Daemon,
) -> Vec<String> {
    rows.ns("h2serve.index_build_ns_per_row", || campaign.index_build());
    let uncached = campaign.daemon(seed, false);
    let started = Instant::now();
    let trace = daemon.trace(seed, 20_000);
    let ns_per_query = started.elapsed().as_nanos() as f64 / trace.len() as f64;
    rows.add("h2serve.trace_gen_ns_per_query", ns_per_query, "ns");

    let pick = |missing: bool| -> Vec<String> {
        trace
            .iter()
            .filter(|p| p.contains("/q/site/") && p.contains("site-missing") == missing)
            .take(1_000)
            .cloned()
            .collect()
    };
    let mut handle = |name: &str, daemon: &Daemon, paths: Vec<String>, repeat: usize| {
        assert!(!paths.is_empty(), "the trace has no {name} query");
        let mut handler = daemon.handler();
        rows.ns(&format!("h2serve.handle_ns.{name}"), || {
            for _ in 0..repeat {
                for path in &paths {
                    black_box(handler.handle(path));
                }
            }
            (paths.len() * repeat) as u64
        });
    };
    handle("site", daemon, pick(false), 1);
    handle("not_found", daemon, pick(true), 1);
    handle("table_miss", &uncached, vec!["/q/table/0".to_string()], 200);
    handle("diff_miss", &uncached, vec!["/q/diff/0/1".to_string()], 20);
    handle("cache_hit", daemon, vec!["/q/table/0".to_string()], 1_000);

    let lookups = &trace[..size.ref_lookups as usize];
    let replay = |guard: bool| {
        let mut direct = uncached.handler();
        let mut client = daemon.connect(0);
        for (k, path) in lookups.iter().enumerate() {
            if k > 0 && k % CONN_BATCH == 0 {
                client = daemon.connect(k / CONN_BATCH);
            }
            let answer = {
                let _op = span::op("op", k as u32);
                daemon.lookup(&mut client, path)
            };
            // Drift guard, kept out of the timed and counted replays.
            assert!(
                !guard || direct.handle(path) == answer,
                "drift: wire and direct answers differ for {path}"
            );
        }
        lookups.len() as u64
    };
    replay(true);
    let spans = fastest_replay(|| {
        replay(false);
    });
    rows.percentiles_us("h2serve.lookup_us", &spans, "op");
    let (n, spent) = alloc::count(|| replay(false));
    rows.add("h2serve.lookup_allocs", spent as f64 / n as f64, "count");
    trace
}

/// Driven directly through `ByteEndpoint`.
fn h2server(rows: &mut Rows, daemon: &Daemon, trace: &[String]) {
    let small = ServerDrive::small();
    rows.ns("h2server.new_ns", || small.news(1_000));
    rows.ns_prepared(
        "h2server.greeting_ns",
        || small.unconnected(1_000),
        |servers| small.greet(servers),
    );
    rows.ns_prepared(
        "h2server.request_ns.small",
        || small.open(),
        |open| small.play(open).0,
    );
    let mut open = small.open();
    let ((requests, _), spent) = alloc::count(|| small.play(&mut open));
    open.check_last_response(400);
    let allocs_per_request = spent as f64 / requests as f64;
    rows.add("h2server.request_allocs.small", allocs_per_request, "count");

    let handled = ServerDrive::handler(daemon, trace);
    rows.ns_prepared(
        "h2server.request_ns.handler",
        || handled.open(),
        |open| handled.play(open).0,
    );
    let mut open = handled.open();
    handled.play(&mut open);
    open.check_last_response(1);

    let bulk = ServerDrive::bulk();
    rows.ns_prepared(
        "h2server.pump_ns_per_kib",
        || bulk.open(),
        |open| bulk.play(open).1 / 1024,
    );
    let mut open = bulk.open();
    bulk.play(&mut open);
    open.check_last_response(256 * 1024);
}

/// The same product-mode scan with the campaign handle on and off, ten
/// alternating pairs, the fastest of each side; then the renderers.
fn h2obs(rows: &mut Rows, size: &Size) {
    let scan = Scan::reference(passes::REFERENCE_SCALE, size.ref_sites * 3 / 50);
    let time_scan = |observer: &Observer| {
        let started = Instant::now();
        passes::scan(&scan, None, observer, SurveyMode::Product);
        started.elapsed().as_nanos() as f64
    };
    time_scan(&Observer::off());
    let (mut off, mut on) = (f64::MAX, f64::MAX);
    for _ in 0..10 {
        off = off.min(time_scan(&Observer::off()));
        on = on.min(time_scan(&Observer::on()));
    }
    rows.add("h2obs.on_overhead_pct", (on / off - 1.0) * 100.0, "%");

    let observed = Observer::on();
    passes::scan(&scan, None, &observed, SurveyMode::Product);
    rows.us("h2obs.snapshot_render_us", || {
        for _ in 0..20 {
            black_box(observed.render());
        }
        20
    });
}
