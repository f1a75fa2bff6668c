//! Probe targets: something H2Scope can open HTTP/2 connections to.

use std::sync::Arc;

use h2obs::Obs;
use h2server::{H2Server, RequestHandler, ServerProfile, ServerScratch, SiteSpec};
use netsim::pipe::BytesPool;
use netsim::time::SimDuration;
use netsim::{LinkSpec, Pipe, PipeFaults, TlsConfig};

use crate::resilient::FaultLog;

/// A factory for per-connection [`RequestHandler`]s, shared across the
/// `Target` clones handed to worker threads. Each connection a target
/// opens invokes it once, so every server instance gets its own handler
/// (handlers are `Send` but stateful — e.g. `repro serve`'s query
/// dispatcher holds a shard-local cache handle).
#[derive(Clone)]
pub struct HandlerHook(Arc<dyn Fn() -> Box<dyn RequestHandler> + Send + Sync>);

impl HandlerHook {
    /// Wraps a handler factory.
    pub fn new(factory: impl Fn() -> Box<dyn RequestHandler> + Send + Sync + 'static) -> Self {
        HandlerHook(Arc::new(factory))
    }

    /// Builds a fresh handler for one connection.
    pub fn make(&self) -> Box<dyn RequestHandler> {
        (self.0)()
    }
}

impl std::fmt::Debug for HandlerHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HandlerHook(..)")
    }
}

/// A probe target: a server profile, its site content, and the network
/// path to it. In testbed mode the link is a clean LAN; in scan mode
/// `webpop` fills in per-site WAN characteristics.
#[derive(Debug, Clone)]
pub struct Target {
    /// The server implementation behind this site. Shared immutably so
    /// each of the ~8 probe connections per survey is a pointer-bump, not
    /// a deep clone of the whole behavior spec.
    pub profile: Arc<ServerProfile>,
    /// The content it serves (shared immutably, like `profile`).
    pub site: Arc<SiteSpec>,
    /// Path characteristics from the vantage point to the site.
    pub link: LinkSpec,
    /// Base seed; each probe connection derives its own stream of
    /// randomness from it so campaigns replay deterministically.
    pub seed: u64,
    /// Transport faults armed on every connection to this target
    /// (fault campaigns only; empty in testbed mode).
    pub pipe_faults: PipeFaults,
    /// Per-connection probe deadline in simulated time. `None` (the
    /// default) is testbed mode: connections run to quiescence and panic
    /// on unparseable server output; `Some` arms the resilient path:
    /// exchanges stop at the deadline and failures are recorded in
    /// [`Target::fault_log`] instead of panicking.
    pub patience: Option<SimDuration>,
    /// Where probe connections report failures (shared across the clones
    /// handed to individual probes).
    pub fault_log: FaultLog,
    /// Observability handle; `Obs::off()` (the default) records nothing
    /// and keeps probing bit-identical to the uninstrumented baseline.
    pub obs: Obs,
    /// Optional dynamic request handler installed on every server this
    /// target spawns (`repro serve` query dispatch). `None` — the default
    /// everywhere except the serve daemon — leaves servers purely static.
    pub handler: Option<HandlerHook>,
}

impl Target {
    /// A testbed target: `profile` serving `site` over a clean LAN.
    /// Accepts owned values or `Arc`s.
    pub fn testbed(
        profile: impl Into<Arc<ServerProfile>>,
        site: impl Into<Arc<SiteSpec>>,
    ) -> Target {
        Target {
            profile: profile.into(),
            site: site.into(),
            link: LinkSpec::lan(),
            seed: 0x5eed,
            pipe_faults: PipeFaults::none(),
            patience: None,
            fault_log: FaultLog::default(),
            obs: Obs::off(),
            handler: None,
        }
    }

    /// The server's TLS negotiation configuration.
    pub fn tls(&self) -> &TlsConfig {
        &self.profile.behavior.tls
    }

    /// Opens a fresh transport connection (new server instance, new pipe),
    /// as every probe in the paper does, in the storage an earlier
    /// connection left behind.
    pub(crate) fn connect(
        &self,
        conn_seed: u64,
        pool: BytesPool,
        scratch: ServerScratch,
    ) -> Pipe<H2Server> {
        // `Arc` clones: no profile/site deep copy on the per-probe path.
        let mut server =
            H2Server::new_in(Arc::clone(&self.profile), Arc::clone(&self.site), scratch);
        server.set_obs(self.obs.clone());
        if let Some(hook) = &self.handler {
            server.set_handler(hook.make());
        }
        let mut pipe = Pipe::connect_pooled(server, self.link, self.seed ^ conn_seed, pool);
        pipe.set_faults(self.pipe_faults);
        pipe.set_obs(self.obs.clone());
        self.obs.conn_opened();
        pipe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_creates_independent_connections() {
        let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
        let mut a = target.connect(1, BytesPool::default(), ServerScratch::default());
        let mut b = target.connect(2, BytesPool::default(), ServerScratch::default());
        // Each connection gets its own greeting.
        assert!(!a.run_to_quiescence().is_empty());
        assert!(!b.run_to_quiescence().is_empty());
    }

    #[test]
    fn tls_reflects_profile() {
        let target = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        assert!(target.tls().npn.is_none());
        assert!(target.tls().alpn.is_some());
    }
}
