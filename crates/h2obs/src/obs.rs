//! The `Obs` handle: a cheap, cloneable recorder threaded through the
//! simulation, connection, probing and bench layers.
//!
//! When observability is disabled (`Obs::off()`, the default everywhere)
//! every recording method is a no-op on a `None` inner — no allocation,
//! no atomics, no locks — so the instrumented hot paths cost one branch
//! and campaign output stays bit-identical to the uninstrumented
//! baseline. Making an off handle (`Obs::off()`, or `for_site` on one)
//! still allocates its detached site context.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{FrameCounters, Histogram, HistogramSnapshot, FRAME_KINDS};
use crate::trace::{EventKind, Ring, SiteTrace, TraceEvent};

/// Maximum trace events retained per traced site (oldest evicted first).
pub const TRACE_RING_CAP: usize = 512;

/// Which probe of the paper's funnel a connection belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProbeKind {
    /// Outside any named probe (setup traffic, ad-hoc connections).
    Other = 0,
    /// §III-A protocol negotiation (ALPN / h2c upgrade).
    Negotiation = 1,
    /// §III-B SETTINGS handling.
    Settings = 2,
    /// Baseline HEADERS request/response exchange.
    Headers = 3,
    /// §III-B flow-control conformance.
    FlowControl = 4,
    /// §III-C priority handling.
    Priority = 5,
    /// Server push behavior.
    Push = 6,
    /// HPACK dynamic-table behavior.
    Hpack = 7,
    /// Concurrent-stream multiplexing.
    Multiplexing = 8,
    /// PING liveness/RTT.
    Ping = 9,
    /// Dependency-aware page load (the push QoE study).
    PageLoad = 10,
}

/// Number of [`ProbeKind`] variants.
pub const PROBE_KINDS: usize = 11;

impl ProbeKind {
    /// All variants, in funnel order.
    pub const ALL: [ProbeKind; PROBE_KINDS] = [
        ProbeKind::Other,
        ProbeKind::Negotiation,
        ProbeKind::Settings,
        ProbeKind::Headers,
        ProbeKind::FlowControl,
        ProbeKind::Priority,
        ProbeKind::Push,
        ProbeKind::Hpack,
        ProbeKind::Multiplexing,
        ProbeKind::Ping,
        ProbeKind::PageLoad,
    ];

    /// Stable lower-case name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::Other => "other",
            ProbeKind::Negotiation => "negotiation",
            ProbeKind::Settings => "settings",
            ProbeKind::Headers => "headers",
            ProbeKind::FlowControl => "flow_control",
            ProbeKind::Priority => "priority",
            ProbeKind::Push => "push",
            ProbeKind::Hpack => "hpack",
            ProbeKind::Multiplexing => "multiplexing",
            ProbeKind::Ping => "ping",
            ProbeKind::PageLoad => "pageload",
        }
    }

    fn from_u8(v: u8) -> ProbeKind {
        ProbeKind::ALL
            .get(v as usize)
            .copied()
            .unwrap_or(ProbeKind::Other)
    }
}

/// Campaign-wide atomic metric store. Every counter is a `Relaxed`
/// `fetch_add`, which commutes; a worker shard is folded into the totals
/// only after its workers quiesce, so totals are thread-count independent.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Frames written by probe clients, by wire kind.
    pub client_sent: FrameCounters,
    /// Frames observed arriving at probe clients, by wire kind.
    pub client_received: FrameCounters,
    /// Frames handled by simulated server connection cores, by wire kind.
    pub server_handled: FrameCounters,
    /// Bytes delivered client → server across all pipes.
    pub bytes_to_server: AtomicU64,
    /// Bytes delivered server → client across all pipes.
    pub bytes_to_client: AtomicU64,
    /// HPACK dynamic-table entries evicted (encoder + decoder sides).
    pub hpack_evictions: AtomicU64,
    /// Simulated connections opened.
    pub conns_opened: AtomicU64,
    /// Probe attempts retried after a failure.
    pub retries: AtomicU64,
    /// Backoff pauses between retries, in virtual nanoseconds.
    pub backoff_nanos: Histogram,
    /// Probe attempts that hit the patience deadline.
    pub timeouts: AtomicU64,
    /// Probe attempts killed by a connection reset.
    pub resets: AtomicU64,
    /// Probe attempts aborted on malformed peer bytes.
    pub malformed: AtomicU64,
    /// Connection lifetimes per probe kind, in virtual nanoseconds.
    pub probe_latency: [Histogram; PROBE_KINDS],
    /// Total per-site virtual time across all of a site's connections.
    pub site_latency: Histogram,
    /// Sites fully surveyed.
    pub sites_finished: AtomicU64,
    /// Sites whose reports were preloaded from a persisted campaign
    /// record instead of being scanned (`repro --resume`).
    pub sites_resumed: AtomicU64,
    /// Serve-path queries answered (`repro serve` index lookups).
    pub lookups: AtomicU64,
    /// Serve-path queries answered from the per-shard render cache.
    pub cache_hits: AtomicU64,
    /// Serve-path queries that had to regenerate their response.
    pub cache_misses: AtomicU64,
    /// Response-body bytes produced by the serve path.
    pub bytes_served: AtomicU64,
    /// Per-query virtual latency (request sent → response complete).
    pub query_latency: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an all-zero registry.
    pub fn new() -> Self {
        MetricsRegistry {
            client_sent: FrameCounters::new(),
            client_received: FrameCounters::new(),
            server_handled: FrameCounters::new(),
            bytes_to_server: AtomicU64::new(0),
            bytes_to_client: AtomicU64::new(0),
            hpack_evictions: AtomicU64::new(0),
            conns_opened: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            backoff_nanos: Histogram::new(),
            timeouts: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            probe_latency: std::array::from_fn(|_| Histogram::new()),
            site_latency: Histogram::new(),
            sites_finished: AtomicU64::new(0),
            sites_resumed: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            query_latency: Histogram::new(),
        }
    }
}

#[derive(Debug)]
struct ObsShared {
    metrics: MetricsRegistry,
    /// Per-worker counter shards (see [`Obs::worker_shard`]), folded
    /// into the campaign totals at snapshot time.
    shards: Mutex<Vec<Arc<MetricsRegistry>>>,
    traces: Mutex<Vec<SiteTrace>>,
    /// Sites with population index below this limit get an event ring.
    trace_limit: u64,
}

/// Per-site mutable context shared by every `Obs` clone for that site.
#[derive(Debug)]
struct SiteCtx {
    index: u64,
    /// Current probe phase; `Relaxed`, written and read only by the
    /// site's owning worker.
    probe: AtomicU8,
    /// Virtual nanoseconds accumulated across the site's connections;
    /// `Relaxed`, touched only by the owning worker and folded into the
    /// site histogram at `finish_site`.
    nanos: AtomicU64,
    ring: Option<Mutex<Ring>>,
}

impl SiteCtx {
    fn detached() -> Arc<SiteCtx> {
        Arc::new(SiteCtx {
            index: u64::MAX,
            probe: AtomicU8::new(ProbeKind::Other as u8),
            nanos: AtomicU64::new(0),
            ring: None,
        })
    }
}

/// Cheap observability handle. Cloning shares the underlying campaign
/// registry and per-site context; `Obs::off()` handles record nothing.
///
/// A handle derived with [`Obs::worker_shard`] routes its counter
/// traffic to a private [`MetricsRegistry`] instead of the shared
/// campaign one — scan workers each take a shard so the hot path never
/// contends on shared counter cache lines — and [`Obs::snapshot`] folds
/// every shard back into the campaign totals.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Option<Arc<ObsShared>>,
    shard: Option<Arc<MetricsRegistry>>,
    site: Arc<SiteCtx>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::off()
    }
}

impl Obs {
    /// The disabled handle: every recording method is a no-op.
    pub fn off() -> Obs {
        Obs {
            inner: None,
            shard: None,
            site: SiteCtx::detached(),
        }
    }

    /// Creates an enabled campaign-wide handle. Sites with index below
    /// `trace_sites` additionally collect a frame-level event trace.
    pub fn campaign(trace_sites: u64) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsShared {
                metrics: MetricsRegistry::new(),
                shards: Mutex::new(Vec::new()),
                traces: Mutex::new(Vec::new()),
                trace_limit: trace_sites,
            })),
            shard: None,
            site: SiteCtx::detached(),
        }
    }

    /// True when this handle actually records.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Derives a handle whose counters land in a fresh private registry
    /// (registered with the campaign and folded back in at
    /// [`Obs::snapshot`] time). One shard per scan worker keeps the
    /// counter cache lines thread-local; because every fold operation is
    /// a commutative sum (or a min/max lattice join), the folded
    /// snapshot is identical at any thread count and any shard-to-site
    /// assignment. On an off handle this stays off.
    pub fn worker_shard(&self) -> Obs {
        let Some(shared) = &self.inner else {
            return Obs::off();
        };
        let shard = Arc::new(MetricsRegistry::new());
        shared
            .shards
            .lock()
            .expect("shard list poisoned")
            .push(Arc::clone(&shard));
        Obs {
            inner: Some(Arc::clone(shared)),
            shard: Some(shard),
            site: SiteCtx::detached(),
        }
    }

    /// Derives the handle for site `index`, attaching a trace ring when
    /// the site falls under the campaign's `--trace-sites` limit. A
    /// worker-shard handle passes its shard on to the site handle.
    pub fn for_site(&self, index: u64) -> Obs {
        let Some(shared) = &self.inner else {
            return Obs::off();
        };
        let ring = if index < shared.trace_limit {
            Some(Mutex::new(Ring::new(TRACE_RING_CAP)))
        } else {
            None
        };
        Obs {
            inner: Some(Arc::clone(shared)),
            shard: self.shard.clone(),
            site: Arc::new(SiteCtx {
                index,
                probe: AtomicU8::new(ProbeKind::Other as u8),
                nanos: AtomicU64::new(0),
                ring,
            }),
        }
    }

    /// The registry this handle's counters land in: its worker shard
    /// when it has one, the shared campaign registry otherwise.
    fn registry<'a>(&'a self, shared: &'a ObsShared) -> &'a MetricsRegistry {
        self.shard.as_deref().unwrap_or(&shared.metrics)
    }

    /// Marks subsequent connections as belonging to `probe`.
    pub fn enter_probe(&self, probe: ProbeKind) {
        if self.inner.is_some() {
            self.site.probe.store(probe as u8, Ordering::Relaxed);
        }
    }

    /// The probe most recently entered on this site (Other by default).
    pub fn current_probe(&self) -> ProbeKind {
        ProbeKind::from_u8(self.site.probe.load(Ordering::Relaxed))
    }

    fn trace(&self, at_nanos: u64, kind: EventKind) {
        if self.inner.is_none() {
            return;
        }
        if let Some(ring) = &self.site.ring {
            ring.lock()
                .expect("trace ring poisoned")
                .push(TraceEvent { at_nanos, kind });
        }
    }

    /// Records a frame written by the probe client.
    pub fn frame_sent(&self, kind: u8, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared).client_sent.bump(kind);
            self.trace(at_nanos, EventKind::Send(kind));
        }
    }

    /// Records a frame observed arriving at the probe client.
    pub fn frame_received(&self, kind: u8, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared).client_received.bump(kind);
            self.trace(at_nanos, EventKind::Recv(kind));
        }
    }

    /// Records a frame handled by a simulated server core.
    pub fn server_frame(&self, kind: u8) {
        if let Some(shared) = &self.inner {
            self.registry(shared).server_handled.bump(kind);
        }
    }

    /// Records bytes delivered across a pipe in the given direction.
    pub fn wire_bytes(&self, to_server: bool, n: u64) {
        if let Some(shared) = &self.inner {
            let m = self.registry(shared);
            if to_server {
                m.bytes_to_server.fetch_add(n, Ordering::Relaxed);
            } else {
                m.bytes_to_client.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Records `delta` HPACK dynamic-table evictions.
    pub fn hpack_evictions(&self, delta: u64) {
        if let Some(shared) = &self.inner {
            if delta > 0 {
                self.registry(shared)
                    .hpack_evictions
                    .fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Records a simulated connection being opened.
    pub fn conn_opened(&self) {
        if let Some(shared) = &self.inner {
            self.registry(shared)
                .conns_opened
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished connection's virtual lifetime against the
    /// current probe's latency histogram and the site accumulator.
    pub fn conn_finished(&self, nanos: u64) {
        if let Some(shared) = &self.inner {
            let probe = self.current_probe();
            self.registry(shared).probe_latency[probe as usize].record(nanos);
            self.site.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Records a retry of probe attempt `attempt` after a backoff pause.
    pub fn retry(&self, attempt: u32, pause_nanos: u64, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            let m = self.registry(shared);
            m.retries.fetch_add(1, Ordering::Relaxed);
            m.backoff_nanos.record(pause_nanos);
            self.trace(at_nanos, EventKind::Retry(attempt));
        }
    }

    /// Records a probe attempt expiring at its patience deadline.
    pub fn timeout(&self, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared)
                .timeouts
                .fetch_add(1, Ordering::Relaxed);
            self.trace(at_nanos, EventKind::Timeout);
        }
    }

    /// Records a probe attempt dying to a connection reset.
    pub fn reset(&self, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared).resets.fetch_add(1, Ordering::Relaxed);
            self.trace(at_nanos, EventKind::Reset);
        }
    }

    /// Records a probe attempt aborting on malformed peer bytes.
    pub fn malformed(&self, at_nanos: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared)
                .malformed
                .fetch_add(1, Ordering::Relaxed);
            self.trace(at_nanos, EventKind::Malformed);
        }
    }

    /// Finalizes this site: records its accumulated latency and flushes
    /// its trace ring (if any) into the campaign trace store.
    pub fn finish_site(&self) {
        let Some(shared) = &self.inner else {
            return;
        };
        let m = self.registry(shared);
        m.site_latency
            .record(self.site.nanos.load(Ordering::Relaxed));
        m.sites_finished.fetch_add(1, Ordering::Relaxed);
        if let Some(ring) = &self.site.ring {
            let (events, dropped) = ring.lock().expect("trace ring poisoned").drain();
            shared
                .traces
                .lock()
                .expect("trace store poisoned")
                .push(SiteTrace {
                    site: self.site.index,
                    events,
                    dropped,
                });
        }
    }

    /// Records `n` sites restored from a persisted campaign record
    /// rather than scanned. Resumed sites deliberately do **not** count
    /// as surveyed (`finish_site`): their latency was spent by the
    /// process that died, not this one, so folding them into the
    /// histograms would make resumed and uninterrupted runs disagree.
    pub fn sites_resumed(&self, n: u64) {
        if let Some(shared) = &self.inner {
            self.registry(shared)
                .sites_resumed
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one serve-path query: whether the per-shard render cache
    /// answered it, the response-body bytes produced, and its virtual
    /// latency (request sent → response complete) in nanoseconds.
    pub fn query_served(&self, cache_hit: bool, bytes: u64, latency_nanos: u64) {
        if let Some(shared) = &self.inner {
            let m = self.registry(shared);
            m.lookups.fetch_add(1, Ordering::Relaxed);
            if cache_hit {
                m.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                m.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            m.bytes_served.fetch_add(bytes, Ordering::Relaxed);
            m.query_latency.record(latency_nanos);
        }
    }

    /// Takes a campaign snapshot, or `None` when the handle is off.
    /// Worker shards are folded into the campaign totals (a pure
    /// commutative sum, so the result is the same at any thread count)
    /// and traces are sorted by site index, so nothing in the snapshot
    /// depends on worker scheduling.
    pub fn snapshot(&self) -> Option<CampaignSnapshot> {
        let shared = self.inner.as_ref()?;
        let shards: Vec<Arc<MetricsRegistry>> =
            shared.shards.lock().expect("shard list poisoned").clone();
        let mut snap = registry_snapshot(&shared.metrics, Vec::new());
        for shard in &shards {
            snap.absorb_registry(shard);
        }
        let mut traces = shared.traces.lock().expect("trace store poisoned").clone();
        traces.sort_by_key(|t| t.site);
        snap.traces = traces;
        Some(snap)
    }
}

/// Snapshots one registry into a [`CampaignSnapshot`] shell.
fn registry_snapshot(m: &MetricsRegistry, traces: Vec<SiteTrace>) -> CampaignSnapshot {
    CampaignSnapshot {
        client_sent: m.client_sent.snapshot(),
        client_received: m.client_received.snapshot(),
        server_handled: m.server_handled.snapshot(),
        bytes_to_server: m.bytes_to_server.load(Ordering::Relaxed),
        bytes_to_client: m.bytes_to_client.load(Ordering::Relaxed),
        hpack_evictions: m.hpack_evictions.load(Ordering::Relaxed),
        conns_opened: m.conns_opened.load(Ordering::Relaxed),
        retries: m.retries.load(Ordering::Relaxed),
        backoff_nanos: m.backoff_nanos.snapshot(),
        timeouts: m.timeouts.load(Ordering::Relaxed),
        resets: m.resets.load(Ordering::Relaxed),
        malformed: m.malformed.load(Ordering::Relaxed),
        probe_latency: ProbeKind::ALL
            .iter()
            .map(|&p| (p, m.probe_latency[p as usize].snapshot()))
            .collect(),
        site_latency: m.site_latency.snapshot(),
        sites_finished: m.sites_finished.load(Ordering::Relaxed),
        sites_resumed: m.sites_resumed.load(Ordering::Relaxed),
        lookups: m.lookups.load(Ordering::Relaxed),
        cache_hits: m.cache_hits.load(Ordering::Relaxed),
        cache_misses: m.cache_misses.load(Ordering::Relaxed),
        bytes_served: m.bytes_served.load(Ordering::Relaxed),
        query_latency: m.query_latency.snapshot(),
        traces,
    }
}

/// Immutable point-in-time view of a campaign's metrics and traces.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// Frames written by probe clients, by wire-kind slot.
    pub client_sent: [u64; FRAME_KINDS],
    /// Frames observed by probe clients, by wire-kind slot.
    pub client_received: [u64; FRAME_KINDS],
    /// Frames handled by simulated server cores, by wire-kind slot.
    pub server_handled: [u64; FRAME_KINDS],
    /// Bytes delivered client → server.
    pub bytes_to_server: u64,
    /// Bytes delivered server → client.
    pub bytes_to_client: u64,
    /// HPACK dynamic-table evictions.
    pub hpack_evictions: u64,
    /// Simulated connections opened.
    pub conns_opened: u64,
    /// Probe attempts retried.
    pub retries: u64,
    /// Backoff pause distribution, virtual nanoseconds.
    pub backoff_nanos: HistogramSnapshot,
    /// Deadline expiries.
    pub timeouts: u64,
    /// Connection resets.
    pub resets: u64,
    /// Malformed-bytes aborts.
    pub malformed: u64,
    /// Connection-lifetime distribution per probe kind.
    pub probe_latency: Vec<(ProbeKind, HistogramSnapshot)>,
    /// Per-site total-latency distribution.
    pub site_latency: HistogramSnapshot,
    /// Sites fully surveyed.
    pub sites_finished: u64,
    /// Sites preloaded from a persisted record (`repro --resume`).
    pub sites_resumed: u64,
    /// Serve-path queries answered (`repro serve`).
    pub lookups: u64,
    /// Serve-path cache hits.
    pub cache_hits: u64,
    /// Serve-path cache misses.
    pub cache_misses: u64,
    /// Serve-path response-body bytes produced.
    pub bytes_served: u64,
    /// Serve-path per-query virtual latency distribution.
    pub query_latency: HistogramSnapshot,
    /// Frame-level traces for sites under the `--trace-sites` limit,
    /// sorted by site index.
    pub traces: Vec<SiteTrace>,
}

impl CampaignSnapshot {
    /// Folds one worker-shard registry into these totals. Every field is
    /// an addition or a min/max join, so folding is commutative and the
    /// result is independent of shard order (i.e. of worker scheduling).
    fn absorb_registry(&mut self, m: &MetricsRegistry) {
        fn add_frames(mine: &mut [u64; FRAME_KINDS], theirs: [u64; FRAME_KINDS]) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        add_frames(&mut self.client_sent, m.client_sent.snapshot());
        add_frames(&mut self.client_received, m.client_received.snapshot());
        add_frames(&mut self.server_handled, m.server_handled.snapshot());
        self.bytes_to_server += m.bytes_to_server.load(Ordering::Relaxed);
        self.bytes_to_client += m.bytes_to_client.load(Ordering::Relaxed);
        self.hpack_evictions += m.hpack_evictions.load(Ordering::Relaxed);
        self.conns_opened += m.conns_opened.load(Ordering::Relaxed);
        self.retries += m.retries.load(Ordering::Relaxed);
        self.backoff_nanos.absorb(&m.backoff_nanos.snapshot());
        self.timeouts += m.timeouts.load(Ordering::Relaxed);
        self.resets += m.resets.load(Ordering::Relaxed);
        self.malformed += m.malformed.load(Ordering::Relaxed);
        for (probe, hist) in &mut self.probe_latency {
            hist.absorb(&m.probe_latency[*probe as usize].snapshot());
        }
        self.site_latency.absorb(&m.site_latency.snapshot());
        self.sites_finished += m.sites_finished.load(Ordering::Relaxed);
        self.sites_resumed += m.sites_resumed.load(Ordering::Relaxed);
        self.lookups += m.lookups.load(Ordering::Relaxed);
        self.cache_hits += m.cache_hits.load(Ordering::Relaxed);
        self.cache_misses += m.cache_misses.load(Ordering::Relaxed);
        self.bytes_served += m.bytes_served.load(Ordering::Relaxed);
        self.query_latency.absorb(&m.query_latency.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        obs.frame_sent(0x4, 10);
        obs.retry(1, 100, 10);
        obs.finish_site();
        assert!(!obs.is_on());
        assert!(obs.snapshot().is_none());
        // for_site on an off handle stays off.
        assert!(!obs.for_site(0).is_on());
    }

    #[test]
    fn campaign_handle_accumulates() {
        let obs = Obs::campaign(1);
        let site0 = obs.for_site(0);
        let site7 = obs.for_site(7);
        site0.enter_probe(ProbeKind::Headers);
        site0.frame_sent(0x4, 5);
        site0.frame_received(0x4, 9);
        site0.conn_finished(1000);
        site0.finish_site();
        site7.frame_sent(0x1, 3);
        site7.timeout(44);
        site7.finish_site();
        let snap = obs.snapshot().expect("on");
        assert_eq!(snap.client_sent[4], 1);
        assert_eq!(snap.client_sent[1], 1);
        assert_eq!(snap.client_received[4], 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.sites_finished, 2);
        let headers = snap
            .probe_latency
            .iter()
            .find(|(p, _)| *p == ProbeKind::Headers)
            .map(|(_, h)| h.clone())
            .expect("headers slot");
        assert_eq!(headers.count, 1);
        assert_eq!(headers.sum, 1000);
        // Only site 0 is under the trace limit.
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.traces[0].site, 0);
        assert_eq!(snap.traces[0].events.len(), 2);
    }

    #[test]
    fn worker_shards_fold_into_campaign_totals() {
        // The same event stream recorded (a) straight into the campaign
        // registry and (b) split across two worker shards must snapshot
        // identically — the guarantee that lets scan workers go
        // shared-nothing without changing any rendered output.
        let record = |handles: &[&Obs]| {
            let a = handles[0].for_site(0);
            a.enter_probe(ProbeKind::Headers);
            a.frame_sent(0x1, 5);
            a.conn_opened();
            a.conn_finished(1_000);
            a.finish_site();
            let b = handles[handles.len() - 1].for_site(3);
            b.frame_received(0x4, 7);
            b.timeout(9);
            b.conn_finished(4_000);
            b.retry(1, 250, 11);
            b.finish_site();
        };
        let direct = Obs::campaign(1);
        record(&[&direct, &direct]);
        let sharded = Obs::campaign(1);
        let w0 = sharded.worker_shard();
        let w1 = sharded.worker_shard();
        record(&[&w0, &w1]);
        let a = direct.snapshot().expect("on");
        let b = sharded.snapshot().expect("on");
        assert_eq!(a.client_sent, b.client_sent);
        assert_eq!(a.client_received, b.client_received);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.conns_opened, b.conns_opened);
        assert_eq!(a.sites_finished, b.sites_finished);
        assert_eq!(a.backoff_nanos, b.backoff_nanos);
        assert_eq!(a.site_latency, b.site_latency);
        assert_eq!(a.probe_latency, b.probe_latency);
        assert_eq!(a.traces.len(), b.traces.len());
    }

    #[test]
    fn worker_shard_of_off_handle_stays_off() {
        let off = Obs::off();
        let shard = off.worker_shard();
        assert!(!shard.is_on());
        shard.conn_opened();
        assert!(shard.snapshot().is_none());
    }

    #[test]
    fn traces_sort_by_site_index() {
        let obs = Obs::campaign(10);
        for idx in [5u64, 2, 9] {
            let s = obs.for_site(idx);
            s.frame_sent(0x0, idx);
            s.finish_site();
        }
        let snap = obs.snapshot().expect("on");
        let sites: Vec<u64> = snap.traces.iter().map(|t| t.site).collect();
        assert_eq!(sites, vec![2, 5, 9]);
    }
}
