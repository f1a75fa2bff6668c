//! A bidirectional byte pipe between a driver (client) and a
//! [`ByteEndpoint`] (server): one link model shared by both directions,
//! per-direction busy/arrival clocks, and a time-ordered delivery loop.

use std::collections::BinaryHeap;

use h2obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::link::LinkSpec;
use crate::time::{SimDuration, SimTime};

/// A passive endpoint driven by byte arrivals (every server in this
/// workspace implements it).
///
/// Both byte hooks *append* to a caller-provided `out` buffer instead of
/// returning a fresh `Vec<u8>`: the delivery loop hands endpoints pooled
/// scratch buffers, so a steady-state probe round-trip performs O(1) heap
/// allocations. Tests that want the old allocating shape can call
/// [`ByteEndpoint::on_connect_vec`] / [`ByteEndpoint::on_bytes_vec`].
pub trait ByteEndpoint {
    /// Called once when the transport connects; appends bytes the endpoint
    /// sends unprompted (e.g. the server's SETTINGS frame) to `out`.
    fn on_connect(&mut self, now: SimTime, out: &mut Vec<u8>) {
        let _ = (now, out);
    }

    /// Called for each delivered segment; appends the response to `out`.
    fn on_bytes(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<u8>);

    /// Fixed per-exchange processing delay (used by the RTT experiments to
    /// model request handling time).
    fn processing_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Allocating convenience wrapper around [`ByteEndpoint::on_connect`].
    fn on_connect_vec(&mut self, now: SimTime) -> Vec<u8> {
        let mut out = Vec::new();
        self.on_connect(now, &mut out);
        out
    }

    /// Allocating convenience wrapper around [`ByteEndpoint::on_bytes`].
    fn on_bytes_vec(&mut self, now: SimTime, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.on_bytes(now, bytes, &mut out);
        out
    }
}

/// The storage a [`Pipe`] leaves behind: a small free-list of byte
/// buffers, reused across deliveries so the steady-state transport path
/// stops allocating, plus the pipe's delivery-queue and inbox storage.
/// Buffers handed out keep their capacity; buffers put back are cleared,
/// and the queue and inbox travel empty.
#[derive(Debug, Default)]
pub struct BytesPool {
    free: Vec<Vec<u8>>,
    queue: Vec<Delivery>,
    inbox: Vec<Arrival>,
}

impl BytesPool {
    /// Pool depth cap: beyond this, returned buffers are simply dropped
    /// (enough for a full request/response pipeline without hoarding).
    const MAX_POOLED: usize = 16;

    /// Takes a cleared buffer from the pool (or a fresh one when empty).
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < Self::MAX_POOLED && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// What a [`Cut`] does to the connection once its octet is reached.
/// Each action fixes the counter it reads:
///
/// | action | counts | fires |
/// |---|---|---|
/// | `Drop` | octets delivered, both directions | after the delivery that brings the total to ≥ `octet`: that segment is delivered, then the connection resets |
/// | `Stall` | octets delivered, both directions | from the point where the total is ≥ `octet`, every delivery vanishes; the connection looks open |
/// | `Truncate` | octets the server endpoint hands the pipe, greeting included | the output that crosses `octet` is cut to exactly `octet`; after that the server is never called again and sends nothing, while client octets still count as delivered. An output cut to zero length is not transmitted, so it draws no link randomness |
/// | `Reset` | octets the server endpoint hands the pipe, greeting included | checked after each [`ByteEndpoint::on_bytes`]: once the total is ≥ `octet`, that output is discarded and the connection resets at that virtual time |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutAction {
    /// A TCP reset after the crossing delivery.
    Drop,
    /// A black hole: the stalled-forever link.
    Stall,
    /// The server's output ends mid-stream, and the server falls silent.
    Truncate,
    /// A TCP reset in place of the crossing server output.
    Reset,
}

/// One octet-offset fault: `action` at `octet` of the counter the action
/// reads (see [`CutAction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Where the cut fires.
    pub octet: u64,
    /// What it does there.
    pub action: CutAction,
}

/// The cuts armed on one connection, held inline in the order they were
/// armed. A fault campaign arms at most three on one attempt: a `Drop`, a
/// `Stall` and a server-side `Truncate` or `Reset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cuts([Option<Cut>; 3]);

impl Cuts {
    /// Arms `cut` after those already armed.
    ///
    /// # Panics
    /// When three cuts are armed already.
    pub fn push(&mut self, cut: Cut) {
        let slot = self.0.iter_mut().find(|slot| slot.is_none());
        *slot.expect("at most three cuts per connection") = Some(cut);
    }

    /// The armed cuts, in the order they were armed.
    pub fn iter(&self) -> impl Iterator<Item = Cut> + '_ {
        self.0.iter().map_while(|slot| *slot)
    }
}

/// Transport-level fault injection: a cut at a virtual time and cuts at
/// octets, armed on a [`Pipe`] when it connects without disturbing its
/// random stream (a default `PipeFaults` is a strict no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeFaults {
    /// Cut the connection at this virtual time.
    pub drop_at: Option<SimTime>,
    /// Cuts at octets of the exchange.
    pub cuts: Cuts,
}

impl PipeFaults {
    /// No injected faults (the default).
    pub fn none() -> PipeFaults {
        PipeFaults::default()
    }

    /// Exactly one cut: `action` at `octet`.
    pub fn cut(octet: u64, action: CutAction) -> PipeFaults {
        let mut faults = PipeFaults::none();
        faults.cuts.push(Cut { octet, action });
        faults
    }

    /// `true` when no fault is armed.
    pub fn is_none(&self) -> bool {
        *self == PipeFaults::default()
    }
}

/// How a delivery-loop run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every queued delivery was processed.
    Quiescent,
    /// Deliveries remain, but the next one is past the caller's deadline.
    DeadlineExpired,
    /// The connection was cut by a [`PipeFaults`] time or a `Drop` or
    /// `Reset` [`Cut`]; nothing further will ever arrive.
    ConnectionReset,
}

#[derive(Debug)]
struct Delivery {
    at: SimTime,
    seq: u64,
    bytes: Vec<u8>,
    to_server: bool,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A segment that arrived at the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// The simulated transport connection between the probe (client) and a
/// server endpoint.
///
/// The client side is driven externally (probes decide what to send and
/// when); the server side is a [`ByteEndpoint`] invoked by the delivery
/// loop. All timing — propagation, serialization, jitter, retransmission
/// penalties, and server processing delay — accrues on the virtual clock.
#[derive(Debug)]
pub struct Pipe<E> {
    server: E,
    link: LinkSpec,
    clock: SimTime,
    queue: BinaryHeap<Delivery>,
    seq: u64,
    up_busy: SimTime,
    down_busy: SimTime,
    /// Reliable byte streams deliver in order: a segment delayed by jitter
    /// or retransmission holds back everything behind it (TCP head-of-line
    /// blocking). These clamps keep per-direction arrivals monotonic.
    up_last_arrival: SimTime,
    down_last_arrival: SimTime,
    rng: StdRng,
    inbox: Vec<Arrival>,
    pool: BytesPool,
    /// [`PipeFaults::drop_at`].
    drop_at: Option<SimTime>,
    /// Where each action's cut fires, indexed by [`CutAction`]: `u64::MAX`
    /// when none is armed, so an unfaulted pipe pays one compare per check.
    cut_at: [u64; 4],
    reset: bool,
    /// Octets the server endpoint has handed the pipe, greeting included
    /// (what `Truncate` and `Reset` cuts count).
    server_octets: u64,
    /// A `Truncate` cut fired: the server is never called again.
    truncated: bool,
    obs: Obs,
    /// Total octets delivered to the client (response volume accounting).
    pub bytes_to_client: u64,
    /// Total octets delivered to the server.
    pub bytes_to_server: u64,
}

impl<E: ByteEndpoint> Pipe<E> {
    /// Connects to `server` over `link` (both directions share its
    /// characteristics), invoking [`ByteEndpoint::on_connect`].
    pub fn connect(server: E, link: LinkSpec, seed: u64) -> Pipe<E> {
        Pipe::connect_pooled(server, link, seed, BytesPool::default())
    }

    /// [`Pipe::connect`] in the storage an earlier pipe left behind (see
    /// [`Pipe::take_pool`]). The pool's buffers are all cleared
    /// ([`BytesPool::put`] clears on return) and its queue and inbox are
    /// empty, so a warmed pool changes allocation behavior only, never
    /// delivered bytes.
    pub fn connect_pooled(server: E, link: LinkSpec, seed: u64, pool: BytesPool) -> Pipe<E> {
        Pipe::connect_faulted(server, link, seed, pool, PipeFaults::none())
    }

    /// [`Pipe::connect_pooled`] with `faults` armed from the first octet,
    /// so a `Truncate` cut applies to the greeting too. A default
    /// [`PipeFaults`] is a strict no-op: it consumes no randomness and
    /// changes no delivery timing.
    pub fn connect_faulted(
        server: E,
        link: LinkSpec,
        seed: u64,
        mut pool: BytesPool,
        faults: PipeFaults,
    ) -> Pipe<E> {
        let mut cut_at = [u64::MAX; 4];
        for cut in faults.cuts.iter() {
            let at = &mut cut_at[cut.action as usize];
            *at = cut.octet.min(*at);
        }
        let mut pipe = Pipe {
            server,
            link,
            clock: SimTime::ZERO,
            queue: BinaryHeap::from(std::mem::take(&mut pool.queue)),
            seq: 0,
            up_busy: SimTime::ZERO,
            down_busy: SimTime::ZERO,
            up_last_arrival: SimTime::ZERO,
            down_last_arrival: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            inbox: std::mem::take(&mut pool.inbox),
            pool,
            drop_at: faults.drop_at,
            cut_at,
            reset: false,
            server_octets: 0,
            truncated: false,
            obs: Obs::off(),
            bytes_to_client: 0,
            bytes_to_server: 0,
        };
        let mut greeting = pipe.pool.take();
        pipe.server.on_connect(SimTime::ZERO, &mut greeting);
        pipe.truncate(&mut greeting);
        if greeting.is_empty() {
            pipe.pool.put(greeting);
        } else {
            pipe.transmit(SimTime::ZERO, greeting, false);
        }
        pipe
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Access to the server endpoint (probes inspect server state in
    /// testbed mode).
    pub fn server(&self) -> &E {
        &self.server
    }

    /// Mutable access to the server endpoint (taking its storage when the
    /// connection is torn down).
    pub fn server_mut(&mut self) -> &mut E {
        &mut self.server
    }

    /// Attaches an observability handle. Like an empty [`PipeFaults`], the
    /// default (`Obs::off()`) is a strict no-op: recording wire bytes never
    /// consumes randomness or perturbs delivery timing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// `true` once the connection has been cut by a fault.
    pub fn is_reset(&self) -> bool {
        self.reset
    }

    /// Queues client bytes for delivery to the server at the appropriate
    /// link-modeled time. Silently dropped once the connection is reset.
    /// Borrows: the payload is copied into a pooled buffer, so callers can
    /// reuse their own scratch space across sends.
    pub fn client_send(&mut self, bytes: &[u8]) {
        if bytes.is_empty() || self.reset {
            return;
        }
        let mut buf = self.pool.take();
        buf.extend_from_slice(bytes);
        self.transmit(self.clock, buf, true);
    }

    /// Hands a buffer back to the pipe's buffer pool. Clients that have
    /// finished with an [`Arrival`]'s payload can return it here so the
    /// next delivery reuses the allocation.
    pub fn recycle(&mut self, bytes: Vec<u8>) {
        self.pool.put(bytes);
    }

    /// Hands back an arrivals list a run returned, so the next run fills
    /// it instead of allocating; payloads still in it go to the pool.
    pub fn recycle_arrivals(&mut self, mut arrivals: Vec<Arrival>) {
        for arrival in arrivals.drain(..) {
            self.pool.put(arrival.bytes);
        }
        self.inbox = arrivals;
    }

    /// Takes the pipe's storage — its buffer pool and its delivery-queue
    /// and inbox storage — leaving empty ones behind. Called when tearing
    /// a connection down, so the warmed storage can seed the next
    /// connection (see [`Pipe::connect_pooled`]); segments still in
    /// flight are dropped, their buffers pooled.
    pub fn take_pool(&mut self) -> BytesPool {
        while let Some(delivery) = self.queue.pop() {
            self.pool.put(delivery.bytes);
        }
        let mut pool = std::mem::take(&mut self.pool);
        pool.queue = std::mem::take(&mut self.queue).into_vec();
        pool.inbox = std::mem::take(&mut self.inbox);
        pool
    }

    /// Runs the delivery loop until no deliveries remain, returning every
    /// segment that reached the client (time-stamped, in arrival order).
    /// The clock advances to the last processed event.
    pub fn run_to_quiescence(&mut self) -> Vec<Arrival> {
        self.run(None).0
    }

    /// Runs the delivery loop, but stops before processing any delivery
    /// scheduled after `deadline` (the clock then rests at `deadline`).
    /// Returns the segments that reached the client plus how the run
    /// ended. Deliveries past the deadline stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> (Vec<Arrival>, RunOutcome) {
        self.run(Some(deadline))
    }

    fn run(&mut self, deadline: Option<SimTime>) -> (Vec<Arrival>, RunOutcome) {
        let mut outcome = if self.reset {
            RunOutcome::ConnectionReset
        } else {
            RunOutcome::Quiescent
        };
        while !self.reset {
            let Some(next_at) = self.queue.peek().map(|d| d.at) else {
                break;
            };
            if let Some(deadline) = deadline {
                if next_at > deadline {
                    self.clock = self.clock.max(deadline);
                    outcome = RunOutcome::DeadlineExpired;
                    break;
                }
            }
            let delivery = self.queue.pop().expect("peeked above");
            if let Some(drop_at) = self.drop_at {
                if delivery.at >= drop_at {
                    self.clock = self.clock.max(drop_at);
                    self.cut();
                    outcome = RunOutcome::ConnectionReset;
                    break;
                }
            }
            self.clock = self.clock.max(delivery.at);
            if self.crossed(CutAction::Stall) {
                self.pool.put(delivery.bytes);
                continue; // black hole: the segment never arrives
            }
            if delivery.to_server {
                self.bytes_to_server += delivery.bytes.len() as u64;
                self.obs.wire_bytes(true, delivery.bytes.len() as u64);
                let mut response = self.pool.take();
                if !self.truncated {
                    self.server
                        .on_bytes(self.clock, &delivery.bytes, &mut response);
                    self.truncate(&mut response);
                }
                self.pool.put(delivery.bytes);
                if self.server_octets >= self.cut_at[CutAction::Reset as usize] {
                    self.pool.put(response);
                    self.cut();
                    outcome = RunOutcome::ConnectionReset;
                    break;
                }
                if response.is_empty() {
                    self.pool.put(response);
                } else {
                    let ready = self.clock + self.server.processing_delay();
                    self.transmit(ready, response, false);
                }
            } else {
                self.bytes_to_client += delivery.bytes.len() as u64;
                self.obs.wire_bytes(false, delivery.bytes.len() as u64);
                self.inbox.push(Arrival {
                    at: delivery.at,
                    bytes: delivery.bytes,
                });
            }
            if self.crossed(CutAction::Drop) {
                self.cut();
                outcome = RunOutcome::ConnectionReset;
                break;
            }
        }
        (std::mem::take(&mut self.inbox), outcome)
    }

    /// `true` once the octets delivered, both directions, reach an armed
    /// `action` cut (`Drop` and `Stall` read this counter).
    fn crossed(&self, action: CutAction) -> bool {
        self.bytes_to_server + self.bytes_to_client >= self.cut_at[action as usize]
    }

    /// Counts `out`, the output the server endpoint just handed the pipe,
    /// cutting it to an armed `Truncate` cut's octet when it crosses it.
    fn truncate(&mut self, out: &mut Vec<u8>) {
        let octet = self.cut_at[CutAction::Truncate as usize];
        if self.server_octets + out.len() as u64 > octet {
            out.truncate((octet - self.server_octets) as usize);
            self.truncated = true;
        }
        self.server_octets += out.len() as u64;
    }

    fn cut(&mut self) {
        self.reset = true;
        while let Some(delivery) = self.queue.pop() {
            self.pool.put(delivery.bytes);
        }
    }

    /// Advances the clock without traffic (think `sleep`).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    /// Puts `bytes` on the wire towards one end at `ready`: the link model
    /// times the segment against that direction's busy clock, and the
    /// direction's last arrival holds it behind everything sent before.
    fn transmit(&mut self, ready: SimTime, bytes: Vec<u8>, to_server: bool) {
        let (busy, last_arrival) = if to_server {
            (&mut self.up_busy, &mut self.up_last_arrival)
        } else {
            (&mut self.down_busy, &mut self.down_last_arrival)
        };
        let (arrival, next_busy) = self.link.schedule(ready, *busy, bytes.len(), &mut self.rng);
        *busy = next_busy;
        *last_arrival = arrival.max(*last_arrival);
        self.seq += 1;
        self.queue.push(Delivery {
            at: *last_arrival,
            seq: self.seq,
            bytes,
            to_server,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every segment back verbatim.
    struct Echo {
        delay: SimDuration,
    }

    impl ByteEndpoint for Echo {
        fn on_connect(&mut self, _now: SimTime, out: &mut Vec<u8>) {
            out.extend_from_slice(b"hello");
        }
        fn on_bytes(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
            out.extend_from_slice(bytes);
        }
        fn processing_delay(&self) -> SimDuration {
            self.delay
        }
    }

    /// An echo server `link_ms` from the client over a clean link, taking
    /// `processing_ms` per exchange, with `faults` armed.
    fn echo(link_ms: u64, processing_ms: u64, faults: PipeFaults) -> Pipe<Echo> {
        let echo = Echo {
            delay: SimDuration::from_millis(processing_ms),
        };
        let link = LinkSpec {
            delay: SimDuration::from_millis(link_ms),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        };
        Pipe::connect_faulted(echo, link, 1, BytesPool::default(), faults)
    }

    #[test]
    fn greeting_arrives_after_one_way_delay() {
        let mut pipe = echo(10, 0, PipeFaults::none());
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].bytes, b"hello");
        assert_eq!(arrivals[0].at, SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn echo_round_trip_takes_two_one_way_delays() {
        let mut pipe = echo(10, 0, PipeFaults::none());
        pipe.run_to_quiescence(); // drain greeting
        let t0 = pipe.now();
        pipe.client_send(b"ping");
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].at - t0, SimDuration::from_millis(20));
    }

    #[test]
    fn processing_delay_adds_to_round_trip() {
        let mut pipe = echo(10, 7, PipeFaults::none());
        pipe.run_to_quiescence();
        let t0 = pipe.now();
        pipe.client_send(b"ping");
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals[0].at - t0, SimDuration::from_millis(27));
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let mut pipe = echo(5, 0, PipeFaults::none());
        pipe.run_to_quiescence();
        pipe.client_send(b"a");
        pipe.client_send(b"b");
        pipe.client_send(b"c");
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 3);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        let payloads: Vec<&[u8]> = arrivals.iter().map(|a| a.bytes.as_slice()).collect();
        assert_eq!(payloads, vec![b"a".as_slice(), b"b", b"c"]);
    }

    #[test]
    fn run_until_leaves_late_deliveries_queued() {
        let mut pipe = echo(10, 0, PipeFaults::none());
        // The greeting arrives at t=10ms; a 5ms deadline misses it.
        let deadline = SimTime::ZERO + SimDuration::from_millis(5);
        let (arrivals, outcome) = pipe.run_until(deadline);
        assert!(arrivals.is_empty());
        assert_eq!(outcome, RunOutcome::DeadlineExpired);
        assert_eq!(pipe.now(), deadline);
        // A later run picks the delivery back up.
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(arrivals.len(), 1);
        assert_eq!(outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn run_until_matches_quiescence_when_deadline_is_generous() {
        let mk = || echo(10, 0, PipeFaults::none());
        let mut a = mk();
        let mut b = mk();
        a.client_send(b"ping");
        b.client_send(b"ping");
        let via_quiescence = a.run_to_quiescence();
        let (via_deadline, outcome) = b.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(via_quiescence, via_deadline);
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(a.now(), b.now());
    }

    /// Greets with five octets, then sends twenty and four octets, one
    /// exchange at a time, through `faults` over a 1 ms link. Returns
    /// every octet that reached the client, how the last run ended,
    /// whether the connection was cut, and the octets delivered to the
    /// server and to the client.
    fn exchange(faults: PipeFaults) -> (Vec<u8>, RunOutcome, bool, u64, u64) {
        let mut pipe = echo(1, 0, faults);
        let mut received = Vec::new();
        let mut outcome = RunOutcome::Quiescent;
        for send in [&b""[..], b"0123456789abcdefghij", b"wxyz"] {
            pipe.client_send(send);
            let (arrivals, ended) = pipe.run_until(pipe.now() + SimDuration::from_secs(1));
            received.extend(arrivals.into_iter().flat_map(|a| a.bytes));
            outcome = ended;
        }
        let counters = (pipe.bytes_to_server, pipe.bytes_to_client);
        (received, outcome, pipe.is_reset(), counters.0, counters.1)
    }

    /// Each action at octet 0, in the middle of a segment (15) and at a
    /// segment's end (25). Octets 15 and 25 fall in the twenty-octet
    /// request for the delivered count and in its echo for the server's.
    #[test]
    fn each_cut_fires_at_its_octet() {
        use CutAction::{Drop, Reset, Stall, Truncate};
        use RunOutcome::{ConnectionReset as Cut, Quiescent as Open};
        const ECHOED: &[u8] = b"hello0123456789abcdefghij";
        // Action, octet, then what `exchange` returns.
        type Row = (CutAction, u64, &'static [u8], RunOutcome, bool, u64, u64);
        #[rustfmt::skip]
        let rows: [Row; 12] = [
            // Delivered once the greeting arrives, then reset.
            (Drop, 0, b"hello", Cut, true, 0, 5),
            // Delivered once the request reaches the server: its echo dies.
            (Drop, 15, b"hello", Cut, true, 20, 5),
            (Drop, 25, b"hello", Cut, true, 20, 5),
            // Nothing ever arrives, and the connection looks open.
            (Stall, 0, b"", Open, false, 0, 0),
            // The request arrives; from then on everything vanishes.
            (Stall, 15, b"hello", Open, false, 20, 5),
            (Stall, 25, b"hello", Open, false, 20, 5),
            // The greeting is cut to nothing, and the server never speaks.
            (Truncate, 0, b"", Open, false, 24, 0),
            // The echo is cut to ten octets; the second request is still
            // delivered, but nothing answers it.
            (Truncate, 15, ECHOED.split_at(15).0, Open, false, 24, 15),
            // The echo fits exactly; the second echo is cut to nothing.
            (Truncate, 25, ECHOED, Open, false, 24, 25),
            // The greeting passes: only an answer to the client can reset.
            (Reset, 0, b"hello", Cut, true, 20, 5),
            // The echo crosses the octet, so it is replaced by the reset.
            (Reset, 15, b"hello", Cut, true, 20, 5),
            (Reset, 25, b"hello", Cut, true, 20, 5),
        ];
        for (action, octet, received, outcome, reset, to_server, to_client) in rows {
            assert_eq!(
                exchange(PipeFaults::cut(octet, action)),
                (received.to_vec(), outcome, reset, to_server, to_client),
                "{action:?} at {octet}"
            );
        }
    }

    /// A fault campaign arms a delivered-count cut and a server-output cut
    /// on one attempt: both fire, each at its own counter.
    #[test]
    fn a_drop_and_a_truncate_act_on_one_pipe() {
        let mut faults = PipeFaults::cut(38, CutAction::Drop);
        faults.cuts.push(Cut {
            octet: 15,
            action: CutAction::Truncate,
        });
        assert_eq!(
            exchange(faults),
            (
                b"hello0123456789".to_vec(),
                RunOutcome::ConnectionReset,
                true,
                24,
                15
            )
        );
    }

    #[test]
    fn drop_at_cuts_at_the_scheduled_time() {
        let faults = PipeFaults {
            drop_at: Some(SimTime::ZERO + SimDuration::from_millis(5)),
            ..PipeFaults::none()
        };
        let mut pipe = echo(10, 0, faults);
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(arrivals.is_empty());
        assert_eq!(outcome, RunOutcome::ConnectionReset);
        assert_eq!(pipe.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn default_faults_are_a_noop() {
        let mk = |faulted: bool| {
            let echo = Echo {
                delay: SimDuration::from_millis(2),
            };
            let link = LinkSpec {
                loss: 0.3,
                jitter: SimDuration::from_millis(4),
                ..LinkSpec::wan(15)
            };
            let mut pipe = if faulted {
                Pipe::connect_faulted(echo, link, 77, BytesPool::default(), PipeFaults::none())
            } else {
                Pipe::connect(echo, link, 77)
            };
            pipe.client_send(&[1u8; 3_000]);
            pipe.client_send(&[2u8; 500]);
            pipe.run_to_quiescence()
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut pipe = echo(1, 0, PipeFaults::none());
        pipe.run_to_quiescence();
        pipe.client_send(&[0u8; 100]);
        pipe.run_to_quiescence();
        assert_eq!(pipe.bytes_to_server, 100);
        assert_eq!(pipe.bytes_to_client, 105); // greeting + echo
    }
}
