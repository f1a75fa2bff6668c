//! The `Obs` handle: a cheap, cloneable recorder threaded through the
//! simulation, connection, probing and bench layers.
//!
//! An off handle (`Obs::off()`, the default everywhere) is `None`:
//! making, cloning and deriving it allocate nothing, and every recording
//! method on it is one branch — no atomics, no locks — so campaign output
//! stays bit-identical to the uninstrumented baseline. An on handle
//! records into its campaign's one metrics registry.

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

/// Campaign-wide atomic metric store: every handle of a campaign records
/// into the one registry. Every counter is a `Relaxed` `fetch_add`,
/// `fetch_min` or `fetch_max`, which commute, and it is read only after
/// the workers join, so totals are thread-count independent.
#[derive(Debug, Default)]
struct MetricsRegistry {
    /// Frames written by probe clients, by wire kind.
    client_sent: FrameCounters,
    /// Frames observed arriving at probe clients, by wire kind.
    client_received: FrameCounters,
    /// Frames handled by simulated server connection cores, by wire kind.
    server_handled: FrameCounters,
    /// Bytes delivered client → server across all pipes.
    bytes_to_server: AtomicU64,
    /// Bytes delivered server → client across all pipes.
    bytes_to_client: AtomicU64,
    /// Header-block octets probe clients received and decoded.
    header_block_octets: AtomicU64,
    /// HPACK dynamic-table entries evicted (encoder + decoder sides).
    hpack_evictions: AtomicU64,
    /// Simulated connections opened.
    conns_opened: AtomicU64,
    /// Probe attempts retried after a failure.
    retries: AtomicU64,
    /// Backoff pauses between retries, in virtual nanoseconds.
    backoff_nanos: Histogram,
    /// Probe attempts that hit the patience deadline.
    timeouts: AtomicU64,
    /// Probe attempts killed by a connection reset.
    resets: AtomicU64,
    /// Probe attempts aborted on malformed peer bytes.
    malformed: AtomicU64,
    /// Connection lifetimes per probe kind, in virtual nanoseconds.
    probe_latency: [Histogram; PROBE_KINDS],
    /// Total per-site virtual time across all of a site's connections.
    site_latency: Histogram,
    /// Sites fully surveyed.
    sites_finished: AtomicU64,
    /// Sites whose reports were preloaded from a persisted campaign
    /// record instead of being scanned (`repro --resume`).
    sites_resumed: AtomicU64,
    /// Serve-path queries answered (`repro serve` index lookups).
    lookups: AtomicU64,
    /// Serve-path queries answered from the per-shard render cache.
    cache_hits: AtomicU64,
    /// Serve-path queries that had to regenerate their response.
    cache_misses: AtomicU64,
    /// Response-body bytes produced by the serve path.
    bytes_served: AtomicU64,
    /// Per-query virtual latency (request sent → response complete).
    query_latency: Histogram,
}

/// What every handle of one campaign shares.
#[derive(Debug)]
struct Campaign {
    metrics: MetricsRegistry,
    traces: Mutex<Vec<SiteTrace>>,
    /// Sites with population index below this limit get an event ring.
    trace_limit: u64,
}

/// One recording handle: its campaign plus the site context that every
/// clone of the handle shares.
#[derive(Debug)]
struct Handle {
    campaign: Arc<Campaign>,
    site: SiteCtx,
}

/// Per-site mutable context.
#[derive(Debug)]
struct SiteCtx {
    /// Population index; `u64::MAX` for a context tied to no site.
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

impl Handle {
    /// A handle on `campaign` for site `index`, with an event ring when
    /// the index falls under the `--trace-sites` limit.
    fn new(campaign: Arc<Campaign>, index: u64) -> Arc<Handle> {
        let ring = (index < campaign.trace_limit).then(|| Mutex::new(Ring::new(TRACE_RING_CAP)));
        Arc::new(Handle {
            campaign,
            site: SiteCtx {
                index,
                probe: AtomicU8::new(ProbeKind::Other as u8),
                nanos: AtomicU64::new(0),
                ring,
            },
        })
    }

    fn trace(&self, at_nanos: u64, kind: EventKind) {
        if let Some(ring) = &self.site.ring {
            ring.lock()
                .expect("trace ring poisoned")
                .push(TraceEvent { at_nanos, kind });
        }
    }
}

/// Cheap observability handle. Cloning shares the campaign registry and
/// the site context; the off handle (`Obs::off()`, the default) is
/// `None`, so making, cloning and deriving it allocate nothing and every
/// recording method on it is one branch.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<Handle>>);

impl Obs {
    /// The disabled handle: every recording method is a no-op.
    pub fn off() -> Obs {
        Obs(None)
    }

    /// Creates an enabled campaign-wide handle. Sites with index below
    /// `trace_sites` additionally collect a frame-level event trace.
    pub fn campaign(trace_sites: u64) -> Obs {
        let campaign = Arc::new(Campaign {
            metrics: MetricsRegistry::default(),
            traces: Mutex::new(Vec::new()),
            trace_limit: trace_sites,
        });
        Obs(Some(Handle::new(campaign, u64::MAX)))
    }

    /// True when this handle actually records.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Derives a worker's handle: the same campaign registry, with a
    /// probe context of its own so that workers entering probes never
    /// race on one. Its index, `u64::MAX`, is under no `--trace-sites`
    /// limit, so it keeps no trace. On an off handle this stays off.
    pub fn worker_shard(&self) -> Obs {
        self.for_site(u64::MAX)
    }

    /// Derives the handle for site `index`, attaching a trace ring when
    /// the site falls under the campaign's `--trace-sites` limit. On an
    /// off handle this stays off.
    pub fn for_site(&self, index: u64) -> Obs {
        Obs(self
            .0
            .as_ref()
            .map(|h| Handle::new(Arc::clone(&h.campaign), index)))
    }

    /// Marks subsequent connections as belonging to `probe`.
    pub fn enter_probe(&self, probe: ProbeKind) {
        if let Some(h) = &self.0 {
            h.site.probe.store(probe as u8, Ordering::Relaxed);
        }
    }

    /// The probe most recently entered on this site (Other by default).
    pub fn current_probe(&self) -> ProbeKind {
        self.0.as_ref().map_or(ProbeKind::Other, |h| {
            ProbeKind::from_u8(h.site.probe.load(Ordering::Relaxed))
        })
    }

    /// Records a frame written by the probe client.
    pub fn frame_sent(&self, kind: u8, at_nanos: u64) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.client_sent.bump(kind);
            h.trace(at_nanos, EventKind::Send(kind));
        }
    }

    /// Records a frame observed arriving at the probe client.
    pub fn frame_received(&self, kind: u8, at_nanos: u64) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.client_received.bump(kind);
            h.trace(at_nanos, EventKind::Recv(kind));
        }
    }

    /// Records a frame handled by a simulated server core.
    pub fn server_frame(&self, kind: u8) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.server_handled.bump(kind);
        }
    }

    /// Records bytes delivered across a pipe in the given direction.
    pub fn wire_bytes(&self, to_server: bool, n: u64) {
        if let Some(h) = &self.0 {
            let m = &h.campaign.metrics;
            let counter = if to_server {
                &m.bytes_to_server
            } else {
                &m.bytes_to_client
            };
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a complete header block of `octets` received and decoded
    /// by a probe client (HEADERS or PUSH_PROMISE plus CONTINUATIONs).
    pub fn header_block(&self, octets: u64) {
        if let Some(h) = &self.0 {
            h.campaign
                .metrics
                .header_block_octets
                .fetch_add(octets, Ordering::Relaxed);
        }
    }

    /// Records `delta` HPACK dynamic-table evictions.
    pub fn hpack_evictions(&self, delta: u64) {
        if let Some(h) = self.0.as_ref().filter(|_| delta > 0) {
            h.campaign
                .metrics
                .hpack_evictions
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Records a simulated connection being opened.
    pub fn conn_opened(&self) {
        if let Some(h) = &self.0 {
            h.campaign
                .metrics
                .conns_opened
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished connection's virtual lifetime against the
    /// current probe's latency histogram and the site accumulator.
    pub fn conn_finished(&self, nanos: u64) {
        if let Some(h) = &self.0 {
            let probe = self.current_probe();
            h.campaign.metrics.probe_latency[probe as usize].record(nanos);
            h.site.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Records a retry of probe attempt `attempt` after a backoff pause.
    pub fn retry(&self, attempt: u32, pause_nanos: u64, at_nanos: u64) {
        if let Some(h) = &self.0 {
            let m = &h.campaign.metrics;
            m.retries.fetch_add(1, Ordering::Relaxed);
            m.backoff_nanos.record(pause_nanos);
            h.trace(at_nanos, EventKind::Retry(attempt));
        }
    }

    /// Records a probe attempt expiring at its patience deadline.
    pub fn timeout(&self, at_nanos: u64) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            h.trace(at_nanos, EventKind::Timeout);
        }
    }

    /// Records a probe attempt dying to a connection reset.
    pub fn reset(&self, at_nanos: u64) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.resets.fetch_add(1, Ordering::Relaxed);
            h.trace(at_nanos, EventKind::Reset);
        }
    }

    /// Records a probe attempt aborting on malformed peer bytes.
    pub fn malformed(&self, at_nanos: u64) {
        if let Some(h) = &self.0 {
            h.campaign.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            h.trace(at_nanos, EventKind::Malformed);
        }
    }

    /// Finalizes this site: records its accumulated latency and flushes
    /// its trace ring (if any) into the campaign trace store.
    pub fn finish_site(&self) {
        if let Some(h) = &self.0 {
            let m = &h.campaign.metrics;
            m.site_latency.record(h.site.nanos.load(Ordering::Relaxed));
            m.sites_finished.fetch_add(1, Ordering::Relaxed);
            if let Some(ring) = &h.site.ring {
                let (events, dropped) = ring.lock().expect("trace ring poisoned").drain();
                h.campaign
                    .traces
                    .lock()
                    .expect("trace store poisoned")
                    .push(SiteTrace {
                        site: h.site.index,
                        events,
                        dropped,
                    });
            }
        }
    }

    /// Records `n` sites restored from a persisted campaign record
    /// rather than scanned. Resumed sites deliberately do **not** count
    /// as surveyed (`finish_site`): their latency was spent by the
    /// process that died, not this one, so folding them into the
    /// histograms would make resumed and uninterrupted runs disagree.
    pub fn sites_resumed(&self, n: u64) {
        if let Some(h) = &self.0 {
            h.campaign
                .metrics
                .sites_resumed
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one serve-path query: whether the per-shard render cache
    /// answered it, the response-body bytes produced, and its virtual
    /// latency (request sent → response complete) in nanoseconds.
    pub fn query_served(&self, cache_hit: bool, bytes: u64, latency_nanos: u64) {
        if let Some(h) = &self.0 {
            let m = &h.campaign.metrics;
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

    /// Takes a campaign snapshot, or `None` when the handle is off. It
    /// reads the one registry (exact once the workers have joined) and
    /// sorts the traces by site index, so nothing in it depends on
    /// worker scheduling.
    pub fn snapshot(&self) -> Option<CampaignSnapshot> {
        let campaign = &self.0.as_ref()?.campaign;
        let m = &campaign.metrics;
        let mut traces = campaign
            .traces
            .lock()
            .expect("trace store poisoned")
            .clone();
        traces.sort_by_key(|t| t.site);
        Some(CampaignSnapshot {
            client_sent: m.client_sent.snapshot(),
            client_received: m.client_received.snapshot(),
            server_handled: m.server_handled.snapshot(),
            bytes_to_server: m.bytes_to_server.load(Ordering::Relaxed),
            bytes_to_client: m.bytes_to_client.load(Ordering::Relaxed),
            header_block_octets: m.header_block_octets.load(Ordering::Relaxed),
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
        })
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
    /// Header-block octets received and decoded by probe clients (part
    /// of `bytes_to_client`).
    pub header_block_octets: u64,
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
    fn worker_handles_record_into_the_campaign_registry() {
        // Handles derived per worker and per site all land in the one
        // registry, and each keeps a probe context of its own.
        let obs = Obs::campaign(1);
        let (w0, w1) = (obs.worker_shard(), obs.worker_shard());
        w0.enter_probe(ProbeKind::Headers);
        assert_eq!(w1.current_probe(), ProbeKind::Other);
        w0.conn_opened();
        w0.conn_finished(1_000);
        let site = w1.for_site(0);
        site.retry(1, 250, 11);
        site.finish_site();
        let snap = obs.snapshot().expect("on");
        assert_eq!(snap.conns_opened, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.sites_finished, 1);
        assert_eq!(snap.probe_latency[ProbeKind::Headers as usize].1.sum, 1_000);
        assert_eq!(snap.traces.len(), 1);
        // An off handle derives only off handles.
        assert!(!Obs::off().worker_shard().is_on());
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
