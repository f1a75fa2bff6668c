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

    /// `true` when the endpoint wants the transport torn down with a TCP
    /// reset (byzantine mid-stream resets). Checked after every
    /// [`ByteEndpoint::on_bytes`] call.
    fn wants_reset(&self) -> bool {
        false
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

    /// Buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no buffers are pooled.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Transport-level fault injection: scheduled connection cuts and
/// black-hole stalls, layered onto a [`Pipe`] without disturbing its
/// random stream (a default `PipeFaults` is a strict no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeFaults {
    /// Cut the connection (TCP reset) once this many octets have crossed
    /// it, in both directions combined.
    pub drop_after_bytes: Option<u64>,
    /// Cut the connection at this virtual time.
    pub drop_at: Option<SimTime>,
    /// Silently discard every delivery after this many octets have
    /// crossed: the connection looks open but nothing ever arrives (the
    /// stalled-forever link; `Some(0)` black-holes from the first byte).
    pub stall_after_bytes: Option<u64>,
}

impl PipeFaults {
    /// No injected faults (the default).
    pub fn none() -> PipeFaults {
        PipeFaults::default()
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
    /// The connection was cut (scheduled fault or endpoint-requested
    /// reset); nothing further will ever arrive.
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
    faults: PipeFaults,
    reset: bool,
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
    pub fn connect_pooled(server: E, link: LinkSpec, seed: u64, mut pool: BytesPool) -> Pipe<E> {
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
            faults: PipeFaults::default(),
            reset: false,
            obs: Obs::off(),
            bytes_to_client: 0,
            bytes_to_server: 0,
        };
        let mut greeting = pipe.pool.take();
        pipe.server.on_connect(SimTime::ZERO, &mut greeting);
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

    /// Arms transport-level fault injection. A default [`PipeFaults`] is a
    /// strict no-op: it adds no checks that consume randomness and changes
    /// no delivery timing.
    pub fn set_faults(&mut self, faults: PipeFaults) {
        self.faults = faults;
    }

    /// Attaches an observability handle. Like [`Pipe::set_faults`], the
    /// default (`Obs::off()`) is a strict no-op: recording wire bytes never
    /// consumes randomness or perturbs delivery timing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// `true` once the connection has been cut by a fault or an
    /// endpoint-requested reset.
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
            if let Some(cut_at) = self.faults.drop_at {
                if delivery.at >= cut_at {
                    self.clock = self.clock.max(cut_at);
                    self.cut();
                    outcome = RunOutcome::ConnectionReset;
                    break;
                }
            }
            self.clock = self.clock.max(delivery.at);
            if let Some(limit) = self.faults.stall_after_bytes {
                if self.bytes_to_server + self.bytes_to_client >= limit {
                    self.pool.put(delivery.bytes);
                    continue; // black hole: the segment never arrives
                }
            }
            if delivery.to_server {
                self.bytes_to_server += delivery.bytes.len() as u64;
                self.obs.wire_bytes(true, delivery.bytes.len() as u64);
                let mut response = self.pool.take();
                self.server
                    .on_bytes(self.clock, &delivery.bytes, &mut response);
                self.pool.put(delivery.bytes);
                if self.server.wants_reset() {
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
            if let Some(limit) = self.faults.drop_after_bytes {
                if self.bytes_to_server + self.bytes_to_client >= limit {
                    self.cut();
                    outcome = RunOutcome::ConnectionReset;
                    break;
                }
            }
        }
        (std::mem::take(&mut self.inbox), outcome)
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

    fn clean_link(delay_ms: u64) -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        }
    }

    #[test]
    fn greeting_arrives_after_one_way_delay() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(10),
            1,
        );
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].bytes, b"hello");
        assert_eq!(arrivals[0].at, SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn echo_round_trip_takes_two_one_way_delays() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(10),
            1,
        );
        pipe.run_to_quiescence(); // drain greeting
        let t0 = pipe.now();
        pipe.client_send(b"ping");
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].at - t0, SimDuration::from_millis(20));
    }

    #[test]
    fn processing_delay_adds_to_round_trip() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::from_millis(7),
            },
            clean_link(10),
            1,
        );
        pipe.run_to_quiescence();
        let t0 = pipe.now();
        pipe.client_send(b"ping");
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals[0].at - t0, SimDuration::from_millis(27));
    }

    #[test]
    fn deliveries_are_time_ordered() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(5),
            1,
        );
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
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(10),
            1,
        );
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
        let mk = || {
            Pipe::connect(
                Echo {
                    delay: SimDuration::ZERO,
                },
                clean_link(10),
                9,
            )
        };
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

    #[test]
    fn drop_after_bytes_cuts_the_connection() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(1),
            1,
        );
        pipe.set_faults(PipeFaults {
            drop_after_bytes: Some(10),
            ..PipeFaults::none()
        });
        pipe.run_to_quiescence(); // greeting: 5 octets, under the limit
        assert!(!pipe.is_reset());
        pipe.client_send(&[0u8; 20]);
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(outcome, RunOutcome::ConnectionReset);
        assert!(arrivals.is_empty(), "the echo died with the connection");
        assert!(pipe.is_reset());
        // Sends after the reset are swallowed.
        pipe.client_send(b"more");
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(arrivals.is_empty());
        assert_eq!(outcome, RunOutcome::ConnectionReset);
    }

    #[test]
    fn drop_at_cuts_at_the_scheduled_time() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(10),
            1,
        );
        pipe.set_faults(PipeFaults {
            drop_at: Some(SimTime::ZERO + SimDuration::from_millis(5)),
            ..PipeFaults::none()
        });
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(arrivals.is_empty());
        assert_eq!(outcome, RunOutcome::ConnectionReset);
        assert_eq!(pipe.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn stalled_link_black_holes_without_resetting() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(10),
            1,
        );
        pipe.set_faults(PipeFaults {
            stall_after_bytes: Some(0),
            ..PipeFaults::none()
        });
        pipe.client_send(b"ping");
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(arrivals.is_empty(), "everything vanished in transit");
        assert_eq!(outcome, RunOutcome::Quiescent, "the connection looks open");
        assert!(!pipe.is_reset());
        assert_eq!(pipe.bytes_to_server + pipe.bytes_to_client, 0);
    }

    /// Endpoint that demands a TCP reset after its first reply.
    struct ResettingEcho {
        replied: bool,
    }

    impl ByteEndpoint for ResettingEcho {
        fn on_bytes(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
            self.replied = true;
            out.extend_from_slice(bytes);
        }
        fn wants_reset(&self) -> bool {
            self.replied
        }
    }

    #[test]
    fn endpoint_requested_reset_cuts_the_connection() {
        let mut pipe = Pipe::connect(ResettingEcho { replied: false }, clean_link(1), 1);
        pipe.client_send(b"hello");
        let (arrivals, outcome) = pipe.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(arrivals.is_empty(), "the reset beat the reply");
        assert_eq!(outcome, RunOutcome::ConnectionReset);
    }

    #[test]
    fn default_faults_are_a_noop() {
        let mk = |faulted: bool| {
            let mut pipe = Pipe::connect(
                Echo {
                    delay: SimDuration::from_millis(2),
                },
                LinkSpec {
                    loss: 0.3,
                    jitter: SimDuration::from_millis(4),
                    ..LinkSpec::wan(15)
                },
                77,
            );
            if faulted {
                pipe.set_faults(PipeFaults::none());
            }
            pipe.client_send(&[1u8; 3_000]);
            pipe.client_send(&[2u8; 500]);
            pipe.run_to_quiescence()
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn byte_counters_accumulate() {
        let mut pipe = Pipe::connect(
            Echo {
                delay: SimDuration::ZERO,
            },
            clean_link(1),
            1,
        );
        pipe.run_to_quiescence();
        pipe.client_send(&[0u8; 100]);
        pipe.run_to_quiescence();
        assert_eq!(pipe.bytes_to_server, 100);
        assert_eq!(pipe.bytes_to_client, 105); // greeting + echo
    }
}
