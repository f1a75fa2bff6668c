//! Allocation budgets for the per-site paths.
//!
//! The campaign scheduler's throughput lives and dies on how much heap
//! churn one site causes: at scan scale every stray `Vec` clone in the
//! frame path multiplies by millions of sites. These tests pin the
//! allocation calls and octets of the per-operation paths — one survey,
//! one generated site, one fresh connection, one request late in a long
//! connection — so a regression (a dropped scratch buffer, a deep profile
//! clone on the connect path, a body filled in that nobody asked for, a
//! scheduler that walks every stream the connection ever carried, storage
//! no longer handed from one connection to the next) fails loudly instead
//! of silently halving throughput.
//!
//! The budgets are a ratchet: each sits at most 3 % above its measured
//! count — 814 allocations for the testbed survey below (down from 2,335
//! once connections stopped keeping a frame history and header lists were
//! decoded in place, from ~1.9k once each connection started in the
//! storage the previous one on its thread left behind, and from 838 once
//! an off observability handle stopped allocating), 40 per fresh
//! connection (down from 137, and from 42 with the off handle), 18.01 per
//! warm request (down from 22.0) and 150.6 per generated site. A change
//! that lowers a count lowers its budget with it. The flat-cost guards
//! compare two windows of one run and need no calibration; an off
//! observability handle must cost nothing at all.

#![allow(
    unsafe_code,
    reason = "a counting GlobalAlloc is an `unsafe impl`; it only forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use h2scope::{H2Scope, Obs, ProbeConn, ProbeKind, Target};
use h2server::{ServerProfile, SiteSpec};
use h2wire::Settings;
use netsim::time::SimDuration;
use webpop::{ExperimentSpec, Population};

/// Counts every allocation and reallocation made through the global
/// allocator, and the octets asked for, per thread (the harness runs the
/// tests of this file side by side). Deallocations are free passes: reuse
/// is the whole point.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static OCTETS: Cell<u64> = const { Cell::new(0) };
}

fn count(octets: usize) {
    // A thread's last frees can come after its locals are gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = OCTETS.try_with(|c| c.set(c.get() + octets as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(calls, octets)` this thread allocated while running `work`.
fn spent<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, octets) = (CALLS.get(), OCTETS.get());
    let result = work();
    (result, CALLS.get() - calls, OCTETS.get() - octets)
}

#[test]
fn single_site_survey_stays_under_allocation_budget() {
    let scope = H2Scope::new();
    let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
    // Warm up lazy statics (static HPACK tables, etc.) and the first
    // report so only steady-state per-survey cost is measured.
    let warmup = scope.survey(&target);

    let (report, calls, _) = spent(|| scope.survey(&target));

    assert_eq!(report, warmup, "warmup and measured surveys agree");
    eprintln!("survey allocations: {calls}");
    const BUDGET: u64 = 838;
    assert!(
        calls <= BUDGET,
        "one site survey allocated {calls} times (budget {BUDGET}); \
         the zero-copy probe path has regressed"
    );
}

/// Observation is free when off: the off handle is `None`, so making,
/// cloning, deriving and snapshotting it, and every recording call on it,
/// allocate nothing.
#[test]
fn an_off_handle_allocates_nothing() {
    let (snapshot, calls, _) = spent(|| {
        let off = Obs::off();
        let copy = off.clone();
        let site = Obs::default().for_site(0);
        let worker = copy.worker_shard();
        for obs in [&off, &copy, &site, &worker] {
            obs.enter_probe(ProbeKind::Headers);
            obs.frame_sent(0x1, 1);
            obs.frame_received(0x4, 2);
            obs.server_frame(0x1);
            obs.wire_bytes(true, 100);
            obs.hpack_evictions(3);
            obs.conn_opened();
            obs.conn_finished(1_000);
            obs.retry(1, 250, 3);
            obs.timeout(4);
            obs.reset(5);
            obs.malformed(6);
            obs.finish_site();
            obs.sites_resumed(1);
            obs.query_served(true, 10, 7);
        }
        off.snapshot()
    });
    assert!(snapshot.is_none(), "an off handle has nothing to snapshot");
    assert_eq!(calls, 0, "an off handle allocated {calls} times");
}

/// Generating a wild site costs its object graph's *paths*, not its
/// bodies: a scan requests `/` and one shared large object, so the few
/// hundred KB of CSS/JS/image bodies are filled in only for the page
/// loads that fetch them.
#[test]
fn generated_sites_cost_paths_not_bodies() {
    const SAMPLE: u64 = 200;
    let population = Population::new(ExperimentSpec::first(), 0.01);
    drop(population.site(0)); // the per-thread shared large body
    let ((), calls, octets) = spent(|| {
        for i in 0..SAMPLE {
            drop(population.site(i * population.headers_count() / SAMPLE));
        }
    });
    let (calls, octets) = (calls as f64 / SAMPLE as f64, octets / SAMPLE);
    eprintln!("site generation: {calls:.1} allocations, {octets} octets per site");
    assert!(calls <= 155.0, "{calls:.1} allocations per generated site");
    assert!(
        octets < 64 * 1024,
        "{octets} octets per generated site: unrequested bodies are being filled in"
    );
}

/// A fresh connection starts warm: once one connection on the thread has
/// come and gone, the next one's establish, first exchange, first
/// `fetch("/")` and drop run in the storage it left behind — buffers,
/// HPACK tables and header lists on both ends — so they allocate little
/// more than what the caller keeps.
#[test]
fn a_fresh_connection_stays_under_its_allocation_ceiling() {
    let population = Population::new(ExperimentSpec::first(), 0.01);
    let target = population.site(0).target();
    let connection = || {
        let mut conn = ProbeConn::establish(&target, Settings::new(), 1);
        assert!(!conn.exchange().is_empty(), "the site greets");
        let (frames, _) = conn.fetch(1, "/");
        assert!(!frames.is_empty(), "the site answers");
    };
    connection();
    let ((), calls, _) = spent(connection);
    eprintln!("fresh connection: {calls} allocations");
    assert!(
        calls <= 41,
        "a fresh connection allocated {calls} times (ceiling 41)"
    );
}

/// A warm request on a long-lived connection allocates only what its
/// caller keeps: no frame history on the client, and header lists decoded
/// into the ones the previous request let go of, on both ends.
#[test]
fn a_warm_request_stays_under_its_allocation_ceiling() {
    const REQUESTS: u64 = 100;
    let mut conn = serve_connection();
    let mut fetch = |stream: u64| {
        let (frames, _) = conn.fetch(1 + 2 * stream as u32, "/");
        assert!(!frames.is_empty(), "request {stream} is answered");
    };
    (0..100).for_each(&mut fetch);
    let ((), calls, _) = spent(|| (100..100 + REQUESTS).for_each(&mut fetch));
    let per_request = calls as f64 / REQUESTS as f64;
    eprintln!("warm request: {per_request:.2} allocations");
    assert!(
        per_request <= 18.5,
        "requests 100..200 allocated {per_request:.2} times each (ceiling 18.5)"
    );
}

/// A connection to the `repro serve` daemon's profile.
fn serve_connection() -> ProbeConn {
    let mut profile = ServerProfile::nghttpd();
    profile.behavior.stall_timeout = Some(SimDuration::from_secs(30));
    profile.behavior.rst_rate_limit = Some(32);
    let target = Target::testbed(profile, SiteSpec::benchmark());
    ProbeConn::establish(&target, Settings::new(), 7)
}

/// A request allocates the same late in a long-lived connection as early
/// in it: the priority scheduler may not copy (or size anything by) the
/// streams that have already closed.
#[test]
fn request_cost_is_flat_over_a_long_connection() {
    // The `repro serve` daemon's profile and connection length.
    let mut profile = ServerProfile::nghttpd();
    profile.behavior.stall_timeout = Some(SimDuration::from_secs(30));
    profile.behavior.rst_rate_limit = Some(32);
    let target = Target::testbed(profile, SiteSpec::benchmark());
    let mut conn = ProbeConn::establish(&target, Settings::new(), 7);
    let mut stream = 1;
    let mut window = |requests: u32| {
        let ((), calls, octets) = spent(|| {
            for _ in 0..requests {
                let (frames, _) = conn.fetch(stream, "/");
                assert!(!frames.is_empty(), "stream {stream} is answered");
                stream += 2;
            }
        });
        (calls, octets)
    };
    window(100);
    let early = window(100);
    window(700);
    let late = window(100);
    eprintln!("100 requests: early {early:?}, late {late:?} (calls, octets)");
    assert!(
        late.0 <= early.0,
        "requests 900..1000 allocated {} times, requests 100..200 {} times",
        late.0,
        early.0
    );
    assert!(
        late.1 * 10 <= early.1 * 11,
        "requests 900..1000 allocated {} octets, requests 100..200 {} octets",
        late.1,
        early.1
    );
}
