//! Every call into a product crate, in one file.
//!
//! The rest of the harness sees only the plain types defined here, so a
//! PR that changes a crate's API has exactly one file of the benchmark to
//! touch. Calls use the crate-root re-exports where they exist. Each
//! composite below names the product code it mirrors; the drift guards in
//! `passes.rs` fail the traced run when a mirror and the product disagree.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use h2campaign::{CampaignMeta, CampaignRow, RecordWriter, StoredRecord};
use h2conn::{ConnectionCore, EffectiveSettings, Role};
use h2fault::{splitmix64, FaultPlan, FaultProfile};
use h2hpack::{huffman, Decoder, Encoder, EncoderOptions, Header};
use h2obs::Obs;
use h2scope::pageload::{page_load_with, LoadOptions};
use h2scope::probes::{flow_control, hpack, negotiation, priority, push, settings};
use h2scope::report::headers_probe;
use h2scope::storage::{read_report, write_report};
use h2scope::{
    survey_with_retries, FaultLog, H2Scope, HandlerHook, ProbeConn, ProbeOutcome, SiteReport,
    Target, TimedFrame,
};
use h2serve::{generate_trace, Query, QueryCache, QueryHandler, ServeIndex};
use h2server::{
    H2Server, HandlerResponse, PushPolicy, RequestHandler, Resource, ServerProfile, SiteSpec,
};
use h2wire::{
    DataFrame, Frame, FrameDecoder, HeadersFrame, PingFrame, PriorityFrame, PrioritySpec,
    RstStreamFrame, SettingId, Settings, SettingsFrame, StreamId, WindowUpdateFrame,
    CONNECTION_PREFACE,
};
use netsim::{
    handshake, ByteEndpoint, LinkSpec, Pipe, PipeFaults, SimDuration, SimTime, TlsConfig,
};
use webpop::{ExperimentSpec, Population, SiteSample};

use crate::span;

// ---------------------------------------------------------------- counts

/// What an `Obs::campaign(0)` snapshot says a pass did. Exact: counters
/// are sums, the simulation is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub conns: u64,
    pub wire_bytes: u64,
    /// Sum of every connection's virtual lifetime.
    pub virtual_ns: u64,
    pub frames_sent: [u64; 3],
    pub frames_received: [u64; 3],
    pub window_updates_sent: u64,
    pub bytes_to_client: u64,
    pub request_blocks: u64,
    pub response_blocks: u64,
    pub hpack_evictions: u64,
    pub server_frames: u64,
    pub retries: u64,
    pub timeouts: u64,
}

/// Frame classes of the h2wire rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    Control = 0,
    Headers = 1,
    Data = 2,
}

impl FrameClass {
    pub const ALL: [FrameClass; 3] = [FrameClass::Control, FrameClass::Headers, FrameClass::Data];

    pub fn name(self) -> &'static str {
        ["control", "headers", "data"][self as usize]
    }
}

/// Wire frame type codes (RFC 7540 §6), as h2obs slots them.
const KIND_DATA: usize = 0x0;
const KIND_HEADERS: usize = 0x1;
const KIND_PUSH_PROMISE: usize = 0x5;
const KIND_WINDOW_UPDATE: usize = 0x8;
const KIND_CONTINUATION: usize = 0x9;

fn by_class(kinds: &[u64]) -> [u64; 3] {
    let mut classes = [0u64; 3];
    for (kind, &n) in kinds.iter().enumerate() {
        let class = match kind {
            KIND_DATA => FrameClass::Data,
            KIND_HEADERS | KIND_PUSH_PROMISE | KIND_CONTINUATION => FrameClass::Headers,
            _ => FrameClass::Control,
        };
        classes[class as usize] += n;
    }
    classes
}

/// A recording observability handle for a counts pass.
pub struct Observer(Obs);

impl Observer {
    pub fn on() -> Observer {
        Observer(Obs::campaign(0))
    }

    pub fn off() -> Observer {
        Observer(Obs::off())
    }

    pub fn counts(&self) -> Counts {
        let Some(snap) = self.0.snapshot() else {
            return Counts::default();
        };
        Counts {
            conns: snap.conns_opened,
            wire_bytes: snap.bytes_to_server + snap.bytes_to_client,
            virtual_ns: snap.probe_latency.iter().map(|(_, h)| h.sum).sum(),
            frames_sent: by_class(&snap.client_sent),
            frames_received: by_class(&snap.client_received),
            window_updates_sent: snap.client_sent[KIND_WINDOW_UPDATE],
            bytes_to_client: snap.bytes_to_client,
            request_blocks: snap.client_sent[KIND_HEADERS],
            response_blocks: snap.client_received[KIND_HEADERS]
                + snap.client_received[KIND_PUSH_PROMISE],
            hpack_evictions: snap.hpack_evictions,
            server_frames: snap.server_handled.iter().sum(),
            retries: snap.retries,
            timeouts: snap.timeouts,
        }
    }

    /// `snapshot` + both renderers, the work `--metrics` adds at exit.
    pub fn render(&self) -> usize {
        let snap = self
            .0
            .snapshot()
            .expect("rendering needs a recording handle");
        h2obs::render_table(&snap).len() + h2obs::render_json(&snap).len()
    }
}

// ------------------------------------------------------------------ scan

/// Span names of the seven probes of the survey funnel, in funnel order.
pub const PROBES: [&str; 7] = [
    "h2scope.probe.negotiation",
    "h2scope.probe.settings",
    "h2scope.probe.headers",
    "h2scope.probe.flow_control",
    "h2scope.probe.priority",
    "h2scope.probe.push",
    "h2scope.probe.hpack",
];

/// One surveyed site, as much of it as the harness looks at.
#[derive(Debug, Clone, PartialEq)]
pub struct Surveyed {
    report: SiteReport,
    row: CampaignRow,
}

impl Surveyed {
    pub fn ok(&self) -> bool {
        self.report.probe.outcome == ProbeOutcome::Ok
    }

    pub fn attempts(&self) -> u64 {
        u64::from(self.report.probe.attempts)
    }

    pub fn same_report(&self, other: &Surveyed) -> bool {
        self.report == other.report
    }
}

/// The two calibrated campaigns (`--exp both`) at `scale`, plus the
/// prober: what `repro adoption` scans.
pub struct Scan {
    populations: Vec<Population>,
    scope: H2Scope,
    plan: Option<FaultPlan>,
    seed: u64,
    /// Sites surveyed per campaign, at most.
    limit: u64,
}

/// How a site is surveyed in a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurveyMode {
    /// The funnel re-composed from the public probe functions, a span
    /// around each probe.
    Decomposed,
    /// `H2Scope::survey` (or `survey_with_retries` under a fault plan) as
    /// one call — what the product runs.
    Product,
}

impl Scan {
    pub fn plain(scale: f64) -> Scan {
        Scan {
            populations: ExperimentSpec::both()
                .into_iter()
                .map(|spec| Population::new(spec, scale))
                .collect(),
            scope: H2Scope::new(),
            plan: None,
            seed: 0,
            limit: u64::MAX,
        }
    }

    /// The first `sites` sites of the first campaign: the fixed input of
    /// the reference composites.
    pub fn reference(scale: f64, sites: u64) -> Scan {
        let mut scan = Scan::plain(scale);
        scan.populations.truncate(1);
        scan.limit = sites;
        scan
    }

    pub fn flaky(scale: f64, seed: u64) -> Scan {
        Scan {
            plan: Some(FaultPlan::new(FaultProfile::flaky(), seed)),
            seed,
            ..Scan::plain(scale)
        }
    }

    /// How many campaigns a pass scans.
    pub fn campaigns(&self) -> usize {
        self.populations.len()
    }

    pub fn sites(&self, population: usize) -> u64 {
        self.populations[population].h2_count().min(self.limit)
    }

    /// Mirrors `bench::scan::scan_one`: generate the site, survey it,
    /// close its observability context, assemble the record.
    pub fn scan_one(
        &self,
        population: usize,
        i: u64,
        observer: &Observer,
        mode: SurveyMode,
    ) -> Surveyed {
        let site = span::in_scope("webpop.site", || self.populations[population].site(i));
        let site_obs = observer.0.for_site(i);
        let report = match (&self.plan, mode) {
            (None, SurveyMode::Product) => {
                let target = plain_target(&site, &site_obs);
                span::in_scope("h2scope.survey", || self.scope.survey(&target))
            }
            (None, SurveyMode::Decomposed) => {
                let target = plain_target(&site, &site_obs);
                span::in_scope("h2scope.survey", || survey_decomposed(&self.scope, &target))
            }
            // The retry driver calls `H2Scope::survey` itself, so a faulted
            // survey cannot be re-composed from outside; its span's
            // children are the fault plan and the target factory.
            (Some(plan), _) => span::in_scope("h2scope.survey_with_retries", || {
                survey_faulted(&self.scope, &site, plan, self.seed, &site_obs)
            }),
        };
        site_obs.finish_site();
        let row = CampaignRow {
            index: i,
            family: site.family,
            report: report.clone(),
        };
        Surveyed { report, row }
    }
}

fn plain_target(site: &SiteSample, site_obs: &Obs) -> Target {
    span::in_scope("webpop.target", || {
        let mut target = site.target();
        target.obs = site_obs.clone();
        target
    })
}

/// Mirrors `H2Scope::survey`: negotiation, then the follow-up probes only
/// where h2 and a HEADERS response are available.
fn survey_decomposed(scope: &H2Scope, target: &Target) -> SiteReport {
    let negotiation = span::in_scope(PROBES[0], || negotiation::probe(target));
    let mut report = SiteReport {
        authority: target.site.authority.clone(),
        negotiation,
        server_name: None,
        headers_received: false,
        settings: Default::default(),
        flow_control: None,
        priority: None,
        push: None,
        hpack: None,
        probe: Default::default(),
    };
    if !negotiation.h2() {
        return report;
    }
    report.settings = span::in_scope(PROBES[1], || settings::probe(target));
    let headers = span::in_scope(PROBES[2], || headers_probe(target));
    report.server_name = headers.server;
    if !headers.headers_received {
        return report;
    }
    report.headers_received = true;
    report.flow_control = Some(span::in_scope(PROBES[3], || flow_control::probe(target)));
    report.priority = Some(span::in_scope(PROBES[4], || priority::algorithm1(target)));
    report.push = Some(span::in_scope(PROBES[5], || push::probe(target, &["/"])));
    let requests = scope.config().hpack_requests;
    report.hpack = Some(span::in_scope(PROBES[6], || hpack::probe(target, requests)));
    report
}

/// Mirrors the faulted branch of `bench::scan::survey_one`.
fn survey_faulted(
    scope: &H2Scope,
    site: &SiteSample,
    plan: &FaultPlan,
    seed: u64,
    site_obs: &Obs,
) -> SiteReport {
    survey_with_retries(
        scope,
        plan.profile().retry,
        splitmix64(seed ^ site.index),
        |attempt| {
            let injection =
                span::in_scope("h2fault.injection", || plan.injection(site.index, attempt));
            let _scope = span::scope("webpop.target");
            let mut target = site.target();
            target.obs = site_obs.clone();
            target.link = injection.impairment.apply(target.link);
            target.pipe_faults = injection.impairment.pipe_faults();
            target.patience = Some(plan.profile().deadline);
            target.seed ^= injection.seed_salt;
            if !injection.byzantine.is_noop() {
                Arc::make_mut(&mut target.profile).behavior.byzantine = Some(injection.byzantine);
            }
            target
        },
    )
}

/// The campaign-record write path of a recorded scan: journal every row
/// as it finishes, finalize at the end. Mirrors `ScanPool::scan_recorded`.
pub struct Recorder {
    writer: RecordWriter,
    meta: CampaignMeta,
    path: PathBuf,
}

impl Recorder {
    pub fn create(scan: &Scan, population: usize, path: &Path) -> Recorder {
        let faults = scan.plan.map_or("none", |plan| plan.profile().name);
        let meta = CampaignMeta::describe(&scan.populations[population], faults, scan.seed);
        let writer = RecordWriter::create(path, &meta).expect("campaign record is writable");
        Recorder {
            writer,
            meta,
            path: path.to_path_buf(),
        }
    }

    pub fn append(&self, site: &Surveyed) {
        span::in_scope("h2campaign.append", || self.writer.append(&site.row)).expect("row appends");
    }

    pub fn finalize(self, sites: &[Surveyed]) {
        let rows: Vec<CampaignRow> = sites.iter().map(|s| s.row.clone()).collect();
        span::in_scope("h2campaign.finalize", || {
            h2campaign::finalize(&self.path, &self.meta, &rows)
        })
        .expect("record finalizes");
    }
}

// ----------------------------------------------------------------- serve

/// Queries per client connection; mirrors `bench::serve::CONN_BATCH`.
pub const CONN_BATCH: usize = 1024;

/// Mirrors `bench::serve::serve_profile` (the bench crate is not a
/// dependency): nghttpd's defenses plus a stall timeout and a tight RST
/// window.
fn serve_profile() -> ServerProfile {
    let mut profile = ServerProfile::nghttpd();
    profile.name = "h2serve".to_string();
    profile.behavior.server_name = "h2serve/0.1".to_string();
    profile.behavior.stall_timeout = Some(SimDuration::from_secs(30));
    profile.behavior.rst_rate_limit = Some(32);
    profile
}

/// A request handler that opens a span around the real one: the h2serve
/// layer boundary, seen from inside a wire lookup.
#[derive(Debug)]
struct SpanHandler(QueryHandler);

impl RequestHandler for SpanHandler {
    fn handle(&mut self, path: &str) -> Option<HandlerResponse> {
        let _scope = span::scope("h2serve.handle");
        self.0.handle(path)
    }
}

/// An answered lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub status: String,
    pub body: Vec<u8>,
}

/// The daemon side of `repro serve`: records loaded, index built, one
/// shard's cache and target. Mirrors `bench::serve::{run_serve,
/// run_on_pool}` at one worker.
pub struct Daemon {
    index: Arc<ServeIndex>,
    cache: Arc<Mutex<QueryCache>>,
    target: Target,
    obs_shard: Obs,
}

impl Daemon {
    pub fn load(records: &[PathBuf], seed: u64, observer: &Observer) -> Daemon {
        let stored: Vec<StoredRecord> = records
            .iter()
            .map(|path| {
                span::in_scope("h2campaign.load", || h2campaign::load_finalized(path))
                    .unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
        Daemon::from_records(stored, seed, observer, true)
    }

    fn from_records(
        stored: Vec<StoredRecord>,
        seed: u64,
        observer: &Observer,
        cache_on: bool,
    ) -> Daemon {
        let index = Arc::new(span::in_scope("h2serve.index_build", || {
            ServeIndex::from_records(stored)
        }));
        let cache = Arc::new(Mutex::new(QueryCache::new(256, cache_on)));
        let obs = observer.0.worker_shard();
        let mut target =
            Target::testbed(Arc::new(serve_profile()), Arc::new(SiteSpec::benchmark()));
        target.seed = seed ^ 0x5e12e;
        target.obs = obs.clone();
        let (hook_index, hook_cache) = (Arc::clone(&index), Arc::clone(&cache));
        target.handler = Some(HandlerHook::new(move || {
            Box::new(SpanHandler(QueryHandler::new(
                Arc::clone(&hook_index),
                Arc::clone(&hook_cache),
            )))
        }));
        Daemon {
            index,
            cache,
            target,
            obs_shard: obs,
        }
    }

    /// The seeded query trace, as request paths.
    pub fn trace(&self, seed: u64, count: u64) -> Vec<String> {
        span::in_scope("h2serve.trace_gen", || {
            generate_trace(&self.index, seed, count)
        })
        .iter()
        .map(Query::path)
        .collect()
    }

    /// Opens the `batch`-th client connection of the shard.
    pub fn connect(&self, batch: usize) -> Client {
        let conn = span::in_scope("h2scope.establish", || {
            ProbeConn::establish(&self.target, Settings::new(), batch as u64)
        });
        Client { conn, stream: 1 }
    }

    /// One lookup over the wire, with the driver's own bookkeeping
    /// (cache-hit probe, latency, `query_served`). Mirrors the loop body
    /// of `bench::serve::run_shard`.
    pub fn lookup(&self, client: &mut Client, path: &str) -> Answer {
        let hits_before = self.cache.lock().expect("shard cache").hits();
        let t0 = client.conn.now();
        let stream = client.stream;
        let (frames, done) = span::in_scope("h2scope.fetch", || client.conn.fetch(stream, path));
        let answer = response_for(stream, &frames);
        client.stream += 2;
        let hit = self.cache.lock().expect("shard cache").hits() > hits_before;
        self.obs_shard
            .query_served(hit, answer.body.len() as u64, (done - t0).as_nanos());
        answer
    }

    /// The same query answered by a handler called directly, no wire.
    pub fn handler(&self) -> DirectHandler {
        DirectHandler(QueryHandler::new(
            Arc::clone(&self.index),
            Arc::clone(&self.cache),
        ))
    }

    pub fn cache_hits_misses(&self) -> (u64, u64) {
        let cache = self.cache.lock().expect("shard cache");
        (cache.hits(), cache.misses())
    }
}

pub struct Client {
    conn: ProbeConn,
    stream: u32,
}

pub struct DirectHandler(QueryHandler);

impl DirectHandler {
    pub fn handle(&mut self, path: &str) -> Answer {
        let response = self.0.handle(path).expect("query paths never fall through");
        Answer {
            status: response.status.to_string(),
            body: response.body.to_vec(),
        }
    }
}

/// Mirrors `bench::serve::response_for`.
fn response_for(stream: u32, frames: &[TimedFrame]) -> Answer {
    let mut answer = Answer {
        status: String::new(),
        body: Vec::new(),
    };
    for tf in frames {
        match &tf.frame {
            Frame::Headers(h) if h.stream_id.value() == stream => {
                if let Some(status) = tf
                    .headers
                    .as_ref()
                    .and_then(|hs| hs.iter().find(|h| h.name == ":status"))
                {
                    answer.status.clone_from(&status.value);
                }
            }
            Frame::Data(d) if d.stream_id.value() == stream => {
                answer.body.extend_from_slice(&d.data)
            }
            _ => {}
        }
    }
    answer
}

// ------------------------------------------------------------------ push

/// RTT bands × bandwidths of the push study; mirrors
/// `bench::push_study::{RTT_BANDS, BANDWIDTHS, cell_link}`.
const RTT_MS: [u64; 3] = [1, 20, 120];
const BANDWIDTH_BPS: [u64; 2] = [1_500_000, 10_000_000];
pub const LINKS: usize = RTT_MS.len() * BANDWIDTH_BPS.len();
pub const POLICIES: usize = PushPolicy::ALL_POLICIES.len();

fn cell_link(link: usize) -> (usize, usize, LinkSpec) {
    let (rtt, bw) = (link / BANDWIDTH_BPS.len(), link % BANDWIDTH_BPS.len());
    let spec = LinkSpec {
        delay: SimDuration::from_micros(RTT_MS[rtt] * 1_000 / 2),
        jitter: SimDuration::ZERO,
        bandwidth_bps: Some(BANDWIDTH_BPS[bw]),
        loss: 0.0,
        retransmit_penalty: SimDuration::from_millis(200),
    };
    (rtt, bw, spec)
}

/// The push study's population and site sample; mirrors
/// `bench::push_study::{study_population, sampled_sites}`.
pub struct Study {
    population: Population,
    pub sites: Vec<u64>,
    seed: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadResult {
    pub complete: bool,
    pub promised: u64,
    pub delivered: u64,
}

/// One (site, link) cell with its four policy profiles prepared.
pub struct StudyCell {
    sample: SiteSample,
    profiles: Vec<Arc<ServerProfile>>,
    site: u64,
    link: usize,
}

impl Study {
    pub fn new(seed: u64, max_sites: usize) -> Study {
        let mut spec = ExperimentSpec::second();
        spec.seed ^= seed;
        let population = Population::new(spec, 0.02);
        let total = population.h2_count();
        let stride = (total / max_sites.max(1) as u64).max(1);
        let sites = (0..total)
            .step_by(stride as usize)
            .take(max_sites)
            .collect();
        Study {
            population,
            sites,
            seed,
        }
    }

    /// Mirrors the head of `bench::push_study::run_cell`.
    pub fn cell(&self, site: u64, link: usize) -> StudyCell {
        let sample = span::in_scope("webpop.site", || self.population.site(site));
        let profiles = PushPolicy::ALL_POLICIES
            .iter()
            .map(|&policy| {
                let mut profile = (*sample.profile).clone();
                profile.behavior.push = policy != PushPolicy::None;
                profile.behavior.push_policy = policy;
                Arc::new(profile)
            })
            .collect();
        StudyCell {
            sample,
            profiles,
            site,
            link,
        }
    }

    /// One page load; mirrors the loop body of `run_cell`.
    pub fn load(
        &self,
        cell: &StudyCell,
        policy: usize,
        load: usize,
        observer: &Observer,
    ) -> LoadResult {
        let (rtt, bw, link) = cell_link(cell.link);
        let seed = splitmix64(
            self.seed
                ^ cell.site.wrapping_mul(0x9e37_79b9)
                ^ ((rtt as u64) << 48)
                ^ ((bw as u64) << 40)
                ^ ((policy as u64) << 32)
                ^ load as u64,
        );
        let target = Target {
            profile: Arc::clone(&cell.profiles[policy]),
            site: Arc::clone(&cell.sample.site),
            link,
            seed,
            pipe_faults: PipeFaults::none(),
            patience: None,
            fault_log: FaultLog::default(),
            obs: observer.0.clone(),
            handler: None,
        };
        let options = LoadOptions {
            enable_push: true,
            seed,
            refuse: &[],
        };
        let result = span::in_scope("h2scope.page_load", || page_load_with(&target, &options));
        LoadResult {
            complete: result.complete(),
            promised: result.promised as u64,
            delivered: result.pushed_assets as u64,
        }
    }
}

// ---------------------------------------------------------------- webpop

/// Unit rows over site generation.
pub struct SiteGen {
    population: Population,
    samples: Vec<SiteSample>,
}

impl SiteGen {
    pub fn new(scale: f64, sites: u64) -> SiteGen {
        let population = Population::new(ExperimentSpec::first(), scale);
        let samples = (0..sites.min(population.h2_count()))
            .map(|i| population.site(i))
            .collect();
        SiteGen {
            population,
            samples,
        }
    }

    pub fn generate(&self) -> u64 {
        for i in 0..self.samples.len() as u64 {
            black_box(self.population.site(i));
        }
        self.samples.len() as u64
    }

    pub fn targets(&self) -> u64 {
        for sample in &self.samples {
            black_box(sample.target());
        }
        self.samples.len() as u64
    }
}

// --------------------------------------------------------------- h2fault

pub fn fault_injections(sites: u64) -> u64 {
    let plan = FaultPlan::new(FaultProfile::flaky(), 7);
    for site in 0..sites {
        for attempt in 0..3 {
            black_box(plan.injection(site, attempt));
        }
    }
    sites * 3
}

// ---------------------------------------------------------------- netsim

/// The harness's own endpoint: echoes every segment back.
struct Echo;

impl ByteEndpoint for Echo {
    fn on_bytes(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(bytes);
    }
}

pub struct Net {
    small: Pipe<Echo>,
    bulk: Pipe<Echo>,
    waiting: Pipe<Echo>,
    payload: Vec<u8>,
}

impl Net {
    pub fn new() -> Net {
        let limited = LinkSpec {
            bandwidth_bps: Some(10_000_000),
            ..LinkSpec::wan(10)
        };
        let mut waiting = Pipe::connect(Echo, LinkSpec::wan(10_000), 3);
        waiting.client_send(&[0x55; 64]);
        Net {
            small: Pipe::connect(Echo, LinkSpec::wan(10), 1),
            bulk: Pipe::connect(Echo, limited, 2),
            waiting,
            payload: vec![0xa5; 64 * 1024],
        }
    }

    /// Connect + drop, the warmed buffer pool handed on as
    /// `Target::connect` does.
    pub fn connects(&mut self, n: u64) -> u64 {
        let mut pool = self.small.take_pool();
        for seed in 0..n {
            let mut pipe = Pipe::connect_pooled(Echo, LinkSpec::wan(10), seed, pool);
            pool = black_box(&mut pipe).take_pool();
        }
        n
    }

    fn round_trips(pipe: &mut Pipe<Echo>, payload: &[u8], n: u64) -> u64 {
        for _ in 0..n {
            pipe.client_send(payload);
            for arrival in pipe.run_to_quiescence() {
                assert_eq!(arrival.bytes.len(), payload.len(), "the echo is complete");
                pipe.recycle(arrival.bytes);
            }
        }
        n
    }

    pub fn small_round_trips(&mut self, n: u64) -> u64 {
        Net::round_trips(&mut self.small, &self.payload[..64], n)
    }

    /// 64 KiB each way over a 10 Mbit/s link.
    pub fn bulk_round_trips(&mut self, n: u64) -> u64 {
        Net::round_trips(&mut self.bulk, &self.payload, n)
    }

    /// `run_until` expiring with a delivery still queued far in the future.
    pub fn deadline_expiries(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            let deadline = self.waiting.now() + SimDuration::from_micros(1);
            let (arrivals, outcome) = self.waiting.run_until(deadline);
            assert!(arrivals.is_empty() && outcome == netsim::RunOutcome::DeadlineExpired);
        }
        n
    }
}

pub fn tls_handshakes(n: u64) -> u64 {
    let server = TlsConfig::h2_full();
    for _ in 0..n {
        black_box(handshake(&server, &["h2", "http/1.1"]));
    }
    n
}

// ---------------------------------------------------------------- h2wire

fn stream(id: u32) -> StreamId {
    StreamId::new(id)
}

fn control_frames() -> Vec<Frame> {
    vec![
        Frame::Settings(SettingsFrame::from(
            Settings::new()
                .with(SettingId::MaxConcurrentStreams, 100)
                .with(SettingId::InitialWindowSize, 65_535),
        )),
        Frame::Settings(SettingsFrame::ack()),
        Frame::Ping(PingFrame::request(*b"h2bench!")),
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::CONNECTION,
            increment: 16_384,
        }),
        Frame::RstStream(RstStreamFrame {
            stream_id: stream(3),
            code: h2wire::ErrorCode::Cancel,
        }),
        Frame::Priority(PriorityFrame {
            stream_id: stream(5),
            spec: PrioritySpec::default_spec(),
        }),
    ]
}

/// Encode/decode rows per frame class, buffers reused.
pub struct Wire {
    frames: [Vec<Frame>; 3],
    encoded: [Bytes; 3],
    scratch: Vec<u8>,
    decoder: FrameDecoder,
}

impl Wire {
    pub fn new() -> Wire {
        let headers = vec![Frame::Headers(HeadersFrame {
            stream_id: stream(1),
            fragment: Bytes::from(Hpack::request_block()),
            end_stream: true,
            end_headers: true,
            priority: None,
            pad_len: None,
        })];
        let data = vec![Frame::Data(DataFrame {
            stream_id: stream(1),
            data: Bytes::from(vec![0xa5; 16 * 1024]),
            end_stream: false,
            pad_len: None,
        })];
        let frames = [control_frames(), headers, data];
        let encoded = [0, 1, 2].map(|i| Bytes::from(h2wire::encode_all(&frames[i])));
        Wire {
            frames,
            encoded,
            scratch: Vec::new(),
            decoder: FrameDecoder::new(),
        }
    }

    pub fn encode(&mut self, class: FrameClass, rounds: u64) -> u64 {
        let frames = &self.frames[class as usize];
        for _ in 0..rounds {
            self.scratch.clear();
            for frame in frames {
                frame.encode(&mut self.scratch);
            }
            black_box(&self.scratch);
        }
        rounds * frames.len() as u64
    }

    /// The client's receive path: `next_frame_shared` over a refcounted
    /// segment, as `ProbeConn::exchange` decodes.
    pub fn decode(&mut self, class: FrameClass, rounds: u64) -> u64 {
        let mut frames = 0;
        for _ in 0..rounds {
            let mut input = self.encoded[class as usize].clone();
            while let Some(frame) = self
                .decoder
                .next_frame_shared(&mut input)
                .expect("harness frames decode")
            {
                black_box(frame);
                frames += 1;
            }
        }
        assert_eq!(frames, rounds * self.frames[class as usize].len() as u64);
        frames
    }

    pub fn decode_mixed(&mut self, rounds: u64) -> u64 {
        FrameClass::ALL
            .iter()
            .map(|&class| self.decode(class, rounds))
            .sum()
    }
}

// --------------------------------------------------------------- h2hpack

/// Response header blocks exactly as a never-indexing and an indexing
/// server profile emit them, captured off real connections: per profile
/// the first block of a fresh connection (cold) and the later ones (warm).
struct CapturedBlocks {
    cold: Bytes,
    warm: Vec<Bytes>,
}

fn capture_response_blocks(profile: ServerProfile, responses: usize) -> CapturedBlocks {
    let target = Target::testbed(profile, unit_site());
    let mut conn = ProbeConn::establish(&target, Settings::new(), 0);
    conn.exchange();
    let mut blocks = Vec::new();
    for k in 0..responses {
        let id = 1 + 2 * k as u32;
        let (frames, _) = conn.fetch(id, "/small");
        let block = frames.iter().find_map(|tf| match &tf.frame {
            Frame::Headers(h) if h.stream_id.value() == id => Some(h.fragment.clone()),
            _ => None,
        });
        blocks.push(block.expect("every fetch answers with HEADERS"));
    }
    let warm = blocks.split_off(1);
    CapturedBlocks {
        cold: blocks.remove(0),
        warm,
    }
}

/// A site with one small object, the size of a served lookup.
fn unit_site() -> SiteSpec {
    SiteSpec::new("unit.example").with(Resource::synthetic("/small", "text/plain", 400))
}

pub struct Hpack {
    request: Vec<Header>,
    paths: Vec<String>,
    warm_encoder: Encoder,
    captured: Vec<CapturedBlocks>,
    scratch: Vec<u8>,
    text: Vec<u8>,
    coded: Vec<u8>,
}

impl Hpack {
    /// The probe's request header list, from `ProbeConn::request_headers`.
    fn request_headers(path: &str) -> Vec<Header> {
        let target = Target::testbed(ServerProfile::nginx(), unit_site());
        ProbeConn::establish(&target, Settings::new(), 0).request_headers(path)
    }

    fn request_block() -> Vec<u8> {
        Encoder::new().encode_block(&Hpack::request_headers("/"))
    }

    pub fn new() -> Hpack {
        let request = Hpack::request_headers("/");
        let mut warm_encoder = Encoder::new();
        warm_encoder.encode_block(&request);
        let text = b"www.example.com/assets/application-0123456789abcdef.js".repeat(8);
        let mut coded = Vec::new();
        huffman::encode(&text, &mut coded);
        Hpack {
            request,
            paths: (0..64)
                .map(|i| format!("/q/site/0/site-{i}.top1m"))
                .collect(),
            warm_encoder,
            captured: vec![
                capture_response_blocks(ServerProfile::nginx(), 33),
                capture_response_blocks(ServerProfile::gse(), 33),
            ],
            scratch: Vec::new(),
            text,
            coded,
        }
    }

    /// First block on a fresh table: the scan's case (one or two requests
    /// per connection).
    pub fn encode_cold(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            self.scratch.clear();
            Encoder::new().encode_block_into(&self.request, &mut self.scratch);
            black_box(&self.scratch);
        }
        n
    }

    /// Later blocks on one connection, only `:path` changing: the
    /// daemon's case.
    pub fn encode_warm(&mut self, n: u64) -> u64 {
        let path = self
            .request
            .iter()
            .position(|h| h.name == ":path")
            .expect("requests carry :path");
        for k in 0..n as usize {
            self.request[path]
                .value
                .clone_from(&self.paths[k % self.paths.len()]);
            self.scratch.clear();
            self.warm_encoder
                .encode_block_into(&self.request, &mut self.scratch);
            black_box(&self.scratch);
        }
        n
    }

    pub fn decode_cold(&mut self, rounds: u64) -> u64 {
        for _ in 0..rounds {
            for captured in &self.captured {
                black_box(
                    Decoder::new()
                        .decode_block(&captured.cold)
                        .expect("captured block decodes"),
                );
            }
        }
        rounds * self.captured.len() as u64
    }

    /// Each round replays one connection's warm blocks, in order, into a
    /// decoder that has seen the cold block (HPACK contexts are stateful).
    pub fn decode_warm(&mut self, rounds: u64) -> u64 {
        let mut blocks = 0;
        for _ in 0..rounds {
            for captured in &self.captured {
                let mut decoder = Decoder::new();
                decoder
                    .decode_block(&captured.cold)
                    .expect("captured block decodes");
                for block in &captured.warm {
                    black_box(decoder.decode_block(block).expect("captured block decodes"));
                    blocks += 1;
                }
            }
        }
        blocks
    }

    /// Returns bytes, so the row reads per byte.
    pub fn huffman_encode(&mut self, rounds: u64) -> u64 {
        for _ in 0..rounds {
            self.scratch.clear();
            huffman::encode(&self.text, &mut self.scratch);
            black_box(&self.scratch);
        }
        rounds * self.text.len() as u64
    }

    pub fn huffman_decode(&mut self, rounds: u64) -> u64 {
        for _ in 0..rounds {
            black_box(huffman::decode(&self.coded).expect("harness text decodes"));
        }
        rounds * self.coded.len() as u64
    }
}

// ---------------------------------------------------------------- h2conn

/// Requests in the canned client stream of the receive row.
const CANNED_REQUESTS: u32 = 64;
const CANNED_BODY: usize = 512;

pub struct Conn {
    canned: Vec<u8>,
    canned_frames: u64,
    response: Vec<Header>,
}

fn server_core() -> ConnectionCore {
    ConnectionCore::new(
        Role::Server,
        EffectiveSettings::default(),
        EncoderOptions::default(),
    )
}

impl Conn {
    pub fn new() -> Conn {
        // SETTINGS, then per request HEADERS + 8×DATA + WINDOW_UPDATE + PING.
        let mut encoder = Encoder::new();
        let mut frames = vec![Frame::Settings(SettingsFrame::from(Settings::new()))];
        let mut headers = Hpack::request_headers("/upload");
        headers[0].value = "POST".to_string();
        for k in 0..CANNED_REQUESTS {
            let id = stream(1 + 2 * k);
            frames.push(Frame::Headers(HeadersFrame {
                stream_id: id,
                fragment: Bytes::from(encoder.encode_block(&headers)),
                end_stream: false,
                end_headers: true,
                priority: None,
                pad_len: None,
            }));
            for chunk in 0..8 {
                frames.push(Frame::Data(DataFrame {
                    stream_id: id,
                    data: Bytes::from(vec![0x42; CANNED_BODY]),
                    end_stream: chunk == 7,
                    pad_len: None,
                }));
            }
            frames.push(Frame::WindowUpdate(WindowUpdateFrame {
                stream_id: StreamId::CONNECTION,
                increment: 4_096,
            }));
            frames.push(Frame::Ping(PingFrame::request([k as u8; 8])));
        }
        Conn {
            canned_frames: frames.len() as u64,
            canned: h2wire::encode_all(&frames),
            response: vec![
                Header::new(":status", "200"),
                Header::new("server", "h2bench/0.1"),
                Header::new("content-type", "text/plain"),
                Header::new("content-length", "400"),
            ],
        }
    }

    pub fn news(&self, n: u64) -> u64 {
        for _ in 0..n {
            black_box(server_core());
        }
        n
    }

    /// A fresh server core consumes the canned stream one request at a
    /// time, replenishing its receive windows as a receiver does.
    pub fn receive(&self, rounds: u64) -> u64 {
        let per_request = (self.canned.len() - 9) / CANNED_REQUESTS as usize;
        for _ in 0..rounds {
            let mut core = server_core();
            black_box(
                core.recv_bytes(&self.canned[..9])
                    .expect("canned SETTINGS is legal"),
            );
            for k in 0..CANNED_REQUESTS as usize {
                let bytes = &self.canned[9 + k * per_request..9 + (k + 1) * per_request];
                black_box(core.recv_bytes(bytes).expect("canned request is legal"));
                black_box(
                    core.replenish_recv_windows(stream(1 + 2 * k as u32), 8 * CANNED_BODY as u32),
                );
            }
        }
        rounds * self.canned_frames
    }

    pub fn encode_headers(&self, n: u64) -> u64 {
        let mut core = server_core();
        for k in 0..n as u32 {
            black_box(core.encode_headers(stream(1 + 2 * k), &self.response, false, None));
        }
        n
    }

    /// 1 KiB DATA frames; the peer tops both send windows up every 32.
    pub fn send_data(&self, n: u64) -> u64 {
        let mut core = server_core();
        let id = stream(1);
        core.encode_headers(id, &self.response, false, None);
        let chunk = Bytes::from(vec![0x42; 1024]);
        for k in 0..n {
            if k % 32 == 0 && k > 0 {
                for window in [StreamId::CONNECTION, id] {
                    core.handle_frame(Frame::WindowUpdate(WindowUpdateFrame {
                        stream_id: window,
                        increment: 32 * 1024,
                    }))
                    .expect("window updates are legal");
                }
            }
            black_box(core.send_data(id, chunk.clone(), false));
        }
        n
    }

    /// PRIORITY frames reshaping an eight-stream tree, as Algorithm 1 does.
    pub fn priority_updates(&self, n: u64) -> u64 {
        let mut core = server_core();
        for k in 0..n as u32 {
            let id = 1 + 2 * (k % 8);
            let depends_on = 1 + 2 * ((k + 3) % 8);
            black_box(
                core.handle_frame(Frame::Priority(PriorityFrame {
                    stream_id: stream(id),
                    spec: PrioritySpec {
                        dependency: stream(if depends_on == id { 0 } else { depends_on }),
                        weight: 1 + (k % 256) as u16,
                        exclusive: k % 5 == 0,
                    },
                }))
                .expect("priority frames are legal"),
            );
        }
        n
    }
}

// -------------------------------------------------------------- h2server

/// A server driven directly through `ByteEndpoint`, no pipe: pre-encoded
/// client bytes in, response bytes out.
pub struct ServerDrive {
    profile: Arc<ServerProfile>,
    site: Arc<SiteSpec>,
    prelude: Vec<u8>,
    /// One element per request: the WINDOW_UPDATE for the previous
    /// response plus the next HEADERS, HPACK state carried along.
    requests: Vec<Vec<u8>>,
    handler: Option<HandlerHook>,
}

impl ServerDrive {
    fn new(
        site: SiteSpec,
        paths: &[String],
        body_hint: u32,
        handler: Option<HandlerHook>,
    ) -> ServerDrive {
        let mut prelude = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::InitialWindowSize, 1 << 20),
        ))
        .encode(&mut prelude);
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::CONNECTION,
            increment: 1 << 30,
        })
        .encode(&mut prelude);
        let mut encoder = Encoder::new();
        let mut headers = Hpack::request_headers("/");
        let requests = paths
            .iter()
            .enumerate()
            .map(|(k, path)| {
                headers[2].value.clone_from(path);
                let mut bytes = Vec::new();
                Frame::WindowUpdate(WindowUpdateFrame {
                    stream_id: StreamId::CONNECTION,
                    increment: body_hint,
                })
                .encode(&mut bytes);
                Frame::Headers(HeadersFrame {
                    stream_id: stream(1 + 2 * k as u32),
                    fragment: Bytes::from(encoder.encode_block(&headers)),
                    end_stream: true,
                    end_headers: true,
                    priority: None,
                    pad_len: None,
                })
                .encode(&mut bytes);
                bytes
            })
            .collect();
        assert_eq!(headers[2].name, ":path");
        ServerDrive {
            profile: Arc::new(serve_profile()),
            site: Arc::new(site),
            prelude,
            requests,
            handler,
        }
    }

    /// GET of a 400-octet static object, 1,024 requests per connection.
    pub fn small() -> ServerDrive {
        let paths = vec!["/small".to_string(); CONN_BATCH];
        ServerDrive::new(unit_site(), &paths, 400, None)
    }

    /// The first 1,024 queries of the daemon's trace through
    /// `set_handler(QueryHandler)`.
    pub fn handler(daemon: &Daemon, paths: &[String]) -> ServerDrive {
        let (index, cache) = (Arc::clone(&daemon.index), Arc::clone(&daemon.cache));
        let hook = HandlerHook::new(move || {
            Box::new(QueryHandler::new(Arc::clone(&index), Arc::clone(&cache)))
        });
        ServerDrive::new(
            SiteSpec::benchmark(),
            &paths[..CONN_BATCH.min(paths.len())],
            1024,
            Some(hook),
        )
    }

    /// GET of a 256 KiB object into wide-open windows: the DATA pump.
    pub fn bulk() -> ServerDrive {
        let paths = vec!["/big/0".to_string(); 64];
        ServerDrive::new(SiteSpec::benchmark(), &paths, 256 * 1024, None)
    }

    fn fresh(&self) -> H2Server {
        let mut server = H2Server::new(Arc::clone(&self.profile), Arc::clone(&self.site));
        if let Some(hook) = &self.handler {
            server.set_handler(hook.make());
        }
        server
    }

    pub fn news(&self, n: u64) -> u64 {
        for _ in 0..n {
            black_box(self.fresh());
        }
        n
    }

    /// `n` servers that have not been connected to yet.
    pub fn unconnected(&self, n: u64) -> Vec<OpenServer> {
        (0..n)
            .map(|_| OpenServer {
                server: self.fresh(),
                out: Vec::new(),
            })
            .collect()
    }

    /// `on_connect` on each: the greeting (SETTINGS) a server sends unprompted.
    pub fn greet(&self, servers: &mut [OpenServer]) -> u64 {
        for open in servers.iter_mut() {
            open.server.on_connect(SimTime::ZERO, &mut open.out);
            black_box(&open.out);
        }
        servers.len() as u64
    }

    /// A connected server that has consumed the client's prelude.
    pub fn open(&self) -> OpenServer {
        let mut open = self.unconnected(1).remove(0);
        open.server.on_connect(SimTime::ZERO, &mut open.out);
        open.server
            .on_bytes(SimTime::ZERO, &self.prelude, &mut open.out);
        open
    }

    /// Plays every request into the connection, one `on_bytes` call each;
    /// returns `(requests, response octets)`.
    pub fn play(&self, open: &mut OpenServer) -> (u64, u64) {
        let mut octets = 0;
        for request in &self.requests {
            open.out.clear();
            open.server.on_bytes(SimTime::ZERO, request, &mut open.out);
            octets += open.out.len() as u64;
        }
        (self.requests.len() as u64, octets)
    }
}

/// One server instance and its output buffer.
pub struct OpenServer {
    server: H2Server,
    out: Vec<u8>,
}

impl OpenServer {
    /// Drift guard: the last response left in the output buffer must carry
    /// HEADERS and a body of at least `min_body` octets.
    pub fn check_last_response(&self, min_body: usize) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&self.out);
        let frames = decoder.drain_frames().expect("server output decodes");
        let body: usize = frames
            .iter()
            .map(|f| match f {
                Frame::Data(d) => d.data.len(),
                _ => 0,
            })
            .sum();
        assert!(
            frames.iter().any(|f| matches!(f, Frame::Headers(_))),
            "no HEADERS in the response"
        );
        assert!(
            body >= min_body,
            "response body is {body} octets, expected at least {min_body}"
        );
    }
}

// ------------------------------------------------------------ h2campaign

/// Unit rows over the records the end-to-end run wrote.
pub struct Campaign {
    records: Vec<StoredRecord>,
    scratch: PathBuf,
}

impl Campaign {
    pub fn load(paths: &[PathBuf], scratch: PathBuf) -> Campaign {
        let records = paths
            .iter()
            .map(|p| h2campaign::load_finalized(p).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        Campaign { records, scratch }
    }

    pub fn rows(&self) -> u64 {
        self.records.iter().map(|r| r.rows.len() as u64).sum()
    }

    /// Journals every row (write + flush each), as a recorded scan does.
    pub fn append(&self) -> u64 {
        for record in &self.records {
            let writer = RecordWriter::create(&self.scratch, &record.meta)
                .expect("scratch record is writable");
            for row in &record.rows {
                writer.append(row).expect("row appends");
            }
        }
        self.rows()
    }

    pub fn finalize(&self) -> u64 {
        for record in &self.records {
            h2campaign::finalize(&self.scratch, &record.meta, &record.rows)
                .expect("record finalizes");
        }
        self.rows()
    }

    /// Loads what `finalize` last wrote (the last record).
    pub fn load_last(&self) -> u64 {
        let loaded = h2campaign::load_finalized(&self.scratch).unwrap_or_else(|e| panic!("{e}"));
        black_box(&loaded);
        loaded.rows.len() as u64
    }

    pub fn diff(&self) -> u64 {
        let (a, b) = (&self.records[0], &self.records[self.records.len() - 1]);
        black_box(h2campaign::diff_records(a, b));
        (a.rows.len() + b.rows.len()) as u64
    }

    /// Drift guard: `load_finalized(finalize(rows)) == rows`, and octets
    /// per row of the finalized file.
    pub fn round_trip(&self) -> f64 {
        let mut octets = 0;
        for record in &self.records {
            h2campaign::finalize(&self.scratch, &record.meta, &record.rows)
                .expect("record finalizes");
            let loaded =
                h2campaign::load_finalized(&self.scratch).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                loaded.rows == record.rows,
                "load_finalized(finalize(rows)) != rows"
            );
            octets += std::fs::metadata(&self.scratch)
                .expect("scratch record exists")
                .len();
        }
        octets as f64 / self.rows() as f64
    }

    /// The same records behind a daemon with the render cache on or off.
    pub fn daemon(&self, seed: u64, cache_on: bool) -> Daemon {
        Daemon::from_records(self.records.clone(), seed, &Observer::off(), cache_on)
    }

    pub fn index_build(&self) -> u64 {
        let records = self.records.clone();
        black_box(ServeIndex::from_records(records));
        self.rows()
    }
}

/// `write_report` / `read_report` over surveyed sites.
pub struct Reports {
    reports: Vec<SiteReport>,
    lines: Vec<String>,
}

impl Reports {
    pub fn new(sites: &[Surveyed]) -> Reports {
        let reports: Vec<SiteReport> = sites.iter().map(|s| s.report.clone()).collect();
        let lines = reports.iter().map(write_report).collect();
        Reports { reports, lines }
    }

    pub fn write(&self) -> u64 {
        for report in &self.reports {
            black_box(write_report(report));
        }
        self.reports.len() as u64
    }

    pub fn read(&self) -> u64 {
        for line in &self.lines {
            black_box(read_report(line).expect("written reports read back"));
        }
        self.lines.len() as u64
    }
}

// -------------------------------------------------------------- h2attack

/// Every attack vector once against the daemon's profile.
pub fn attack_vectors(seed: u64) -> u64 {
    let target = Target::testbed(serve_profile(), SiteSpec::benchmark());
    for vector in h2attack::AttackVector::ALL {
        black_box(h2attack::run(vector, &target, seed));
    }
    h2attack::AttackVector::ALL.len() as u64
}

// ------------------------------------------------------- small composites

/// `ProbeConn::establish` + drop against the unit site.
pub fn establishes(n: u64) -> u64 {
    let target = Target::testbed(serve_profile(), unit_site());
    for seed in 0..n {
        black_box(ProbeConn::establish(&target, Settings::new(), seed));
    }
    n
}

/// `ProbeConn::fetch` of the 400-octet object on a long-lived connection.
pub struct Fetcher {
    target: Target,
    client: Option<Client>,
}

impl Fetcher {
    pub fn new() -> Fetcher {
        Fetcher {
            target: Target::testbed(serve_profile(), unit_site()),
            client: None,
        }
    }

    pub fn fetches(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            let client = self.client.get_or_insert_with(|| {
                let mut conn = ProbeConn::establish(&self.target, Settings::new(), 0);
                conn.exchange();
                Client { conn, stream: 1 }
            });
            let (frames, _) = client.conn.fetch(client.stream, "/small");
            assert!(!frames.is_empty(), "the unit site answers");
            black_box(frames);
            client.stream += 2;
            if client.stream as usize > 2 * CONN_BATCH {
                self.client = None;
            }
        }
        n
    }
}
