//! The priority probe — the paper's Algorithm 1 (§III-C), its most novel
//! methodological contribution — plus the self-dependency probe.
//!
//! Remotely inferring whether a server honors stream priorities is hard
//! because response ordering is confounded by flow control and
//! first-come-first-served processing. Algorithm 1 removes both
//! confounders:
//!
//! 1. announce a huge `SETTINGS_INITIAL_WINDOW_SIZE` so *stream* windows
//!    never block anything;
//! 2. drain the 65,535-octet *connection* window (which SETTINGS cannot
//!    change — only WINDOW_UPDATE can) with throwaway downloads, then
//!    RST them;
//! 3. with the server now unable to send any DATA, submit the probe
//!    requests with dependency information and reprioritize them with
//!    PRIORITY frames — the server has time to build the tree;
//! 4. reopen the connection window with one huge WINDOW_UPDATE and
//!    observe the DATA ordering.

use std::collections::BTreeMap;

use h2wire::{
    Frame, PriorityFrame, PrioritySpec, SettingId, Settings, StreamId, WindowUpdateFrame,
};

use super::{observed_reaction, Reaction};
use crate::client::ProbeConn;
use crate::target::Target;

/// The six probe streams, named as in the paper's Figure 1 / §V-E.
const A: u32 = 3;
/// Stream B.
const B: u32 = 5;
/// Stream C.
const C: u32 = 7;
/// Stream D.
const D: u32 = 9;
/// Stream E.
const E: u32 = 11;
/// Stream F.
const F: u32 = 13;

/// Result of Algorithm 1 plus the self-dependency probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityReport {
    /// Expected ordering holds judging by each stream's *last* DATA frame
    /// (Table III's "pass"; the paper's 1,147 / 2,187 sites).
    pub by_last_frame: bool,
    /// Expected ordering holds judging by each stream's *first* DATA
    /// frame (46 / 117 sites).
    pub by_first_frame: bool,
    /// The server withheld even HEADERS while the connection window was
    /// zero (observed on some servers, §III-C1).
    pub headers_blocked_at_zero_conn_window: bool,
    /// Reaction to a self-dependent PRIORITY frame (§III-C2).
    pub self_dependency: Reaction,
}

/// Runs Algorithm 1 against the target.
///
/// Classifies RFC 7540 §5.3: parent before children, siblings by weight.
pub fn algorithm1(target: &Target) -> PriorityReport {
    target.obs.enter_probe(h2obs::ProbeKind::Priority);
    // Step 0: huge stream windows so only the connection window gates.
    let settings = Settings::new().with(SettingId::InitialWindowSize, 0x7fff_ffff);
    let mut conn = ProbeConn::establish(target, settings, 0xa190);
    conn.exchange();

    // Step 1: drain the connection-level window (65,535 octets) with
    // throwaway downloads, computing how many streams are needed as data
    // arrives (the paper's callback), then RST them.
    let mut drained: u64 = 0;
    let mut throwaway = 1u32;
    conn.get(throwaway, "/big/7", None);
    loop {
        let frames = conn.exchange();
        if frames.is_empty() {
            break;
        }
        for tf in &frames {
            if let Frame::Data(d) = &tf.frame {
                drained += u64::from(d.flow_controlled_len());
            }
        }
        if drained >= 65_535 {
            break;
        }
        // Need another object: open one more throwaway stream. (With the
        // benchmark site one 256 KiB object more than covers the window,
        // but small sites require several — this is the paper's loop.)
        throwaway += 2;
        if throwaway > 31 {
            break;
        }
        conn.get(throwaway, "/big/7", None);
    }
    let mut rst_frames = Vec::new();
    for s in (1..=throwaway).step_by(2) {
        rst_frames.push(Frame::RstStream(h2wire::RstStreamFrame {
            stream_id: StreamId::new(s),
            code: h2wire::ErrorCode::Cancel,
        }));
    }
    conn.send_all(&rst_frames);
    conn.exchange();
    let window_drained = drained >= 65_535;

    // Step 2: submit the probe requests with the Table I dependency tree:
    // A at the root (weight 1); B, C, D under A; E under B; F under D.
    conn.get(A, "/big/1", Some(dep(0)));
    conn.get(B, "/big/2", Some(dep(A)));
    conn.get(C, "/big/3", Some(dep(A)));
    conn.get(D, "/big/4", Some(dep(A)));
    conn.get(E, "/big/5", Some(dep(B)));
    conn.get(F, "/big/6", Some(dep(D)));
    let frames = conn.exchange();
    // With the connection window at zero, DATA cannot flow. Most servers
    // still send the response HEADERS; some do not (§III-C1).
    let headers_blocked = window_drained
        && !frames
            .iter()
            .any(|tf| matches!(tf.frame, Frame::Headers(_)));

    // Step 3: reprioritize while the server cannot send DATA.
    reprioritize(&mut conn);
    conn.exchange();

    // Step 4: reopen the connection window and observe DATA ordering.
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id: StreamId::CONNECTION,
        increment: 0x7fff_fffe,
    }));
    let (by_last_frame, by_first_frame) = observe_ordering(&mut conn);
    PriorityReport {
        by_last_frame,
        by_first_frame,
        headers_blocked_at_zero_conn_window: headers_blocked,
        self_dependency: self_dependency(target),
    }
}

/// A non-exclusive, weight-1 dependency on `parent` (Table I's edges).
fn dep(parent: u32) -> PrioritySpec {
    PrioritySpec {
        exclusive: false,
        dependency: StreamId::new(parent),
        weight: 1,
    }
}

/// Reprioritizes with PRIORITY frames into the §V-E target tree: D at
/// the root, A under D (exclusively, adopting F), E moved under C.
/// Expected service order: D first, then A, then {B, C, F}, with E
/// after C.
fn reprioritize(conn: &mut ProbeConn) {
    conn.send_all(&[
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(D),
            spec: dep(0),
        }),
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(A),
            spec: PrioritySpec {
                exclusive: true,
                ..dep(D)
            },
        }),
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(E),
            spec: dep(C),
        }),
    ]);
}

/// Runs the connection to silence and judges the DATA ordering by each
/// stream's last and by its first frame: `(by_last, by_first)`.
fn observe_ordering(conn: &mut ProbeConn) -> (bool, bool) {
    let mut first: BTreeMap<u32, usize> = BTreeMap::new();
    let mut last: BTreeMap<u32, usize> = BTreeMap::new();
    let mut index = 0usize;
    loop {
        let frames = conn.exchange();
        if frames.is_empty() {
            break;
        }
        for tf in &frames {
            if let Frame::Data(d) = &tf.frame {
                let sid = d.stream_id.value();
                first.entry(sid).or_insert(index);
                last.insert(sid, index);
                index += 1;
            }
        }
    }
    (ordering_holds(&last), ordering_holds(&first))
}

/// The §V-E ordering rules on a per-stream index map:
/// D before everyone; A before everyone but D; C before E.
fn ordering_holds(index: &BTreeMap<u32, usize>) -> bool {
    let all = [A, B, C, D, E, F];
    if !all.iter().all(|s| index.contains_key(s)) {
        return false;
    }
    // contains_key over all six streams checked above
    let v = |s: u32| index[&s];
    let d_first = all.iter().filter(|&&s| s != D).all(|&s| v(D) < v(s));
    let a_second = all
        .iter()
        .filter(|&&s| s != D && s != A)
        .all(|&s| v(A) < v(s));
    let c_before_e = v(C) < v(E);
    d_first && a_second && c_before_e
}

/// The naive priority check Algorithm 1 exists to replace: send the same
/// prioritized requests **without** draining the connection window first,
/// and classify the response ordering directly.
///
/// §III-C1 explains why this misleads: without the drain, the server
/// starts answering the early requests before the PRIORITY frames arrive
/// (FCFS), and flow control perturbs the order. On a server that *does*
/// honor priorities, the naive check frequently reports "fail" — the
/// false negative the paper's methodology eliminates. Exposed so the
/// ablation can be demonstrated.
///
/// Classifies RFC 7540 §5.3: parent before children, siblings by weight.
pub fn naive_order_check(target: &Target) -> PriorityReport {
    let settings = Settings::new().with(SettingId::InitialWindowSize, 0x7fff_ffff);
    let mut conn = ProbeConn::establish(target, settings, 0xa191);
    conn.exchange();
    // Same tree as Algorithm 1, but requests flow immediately: each
    // exchange lets the server serve whatever arrived so far.
    conn.get(A, "/big/1", Some(dep(0)));
    conn.exchange();
    conn.get(B, "/big/2", Some(dep(A)));
    conn.get(C, "/big/3", Some(dep(A)));
    conn.exchange();
    conn.get(D, "/big/4", Some(dep(A)));
    conn.get(E, "/big/5", Some(dep(B)));
    conn.get(F, "/big/6", Some(dep(D)));
    reprioritize(&mut conn);
    let (by_last_frame, by_first_frame) = observe_ordering(&mut conn);
    PriorityReport {
        by_last_frame,
        by_first_frame,
        headers_blocked_at_zero_conn_window: false,
        self_dependency: Reaction::Ignored, // not probed in the naive check
    }
}

/// §III-C2: send a PRIORITY frame making a stream depend on itself.
///
/// Classifies RFC 7540 §5.3.1: a stream cannot depend on itself.
pub fn self_dependency(target: &Target) -> Reaction {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x5e1f);
    conn.exchange();
    conn.send(Frame::Priority(PriorityFrame {
        stream_id: StreamId::new(15),
        spec: PrioritySpec {
            exclusive: false,
            dependency: StreamId::new(15),
            weight: 16,
        },
    }));
    let frames = conn.exchange();
    observed_reaction(&conn, &frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn target_for(profile: ServerProfile) -> Target {
        Target::testbed(profile, SiteSpec::benchmark())
    }

    /// A connection cut at any octet of the self-dependency exchange
    /// reports the server's RST_STREAM if it got through, and `Unknown`
    /// otherwise — never "ignored", a behavior the probe did not see.
    #[test]
    fn a_cut_connection_reads_unknown_never_ignored() {
        let cut_after = |octets| {
            let mut target = target_for(ServerProfile::rfc7540());
            target.patience = Some(netsim::time::SimDuration::from_secs(5));
            target.pipe_faults = netsim::PipeFaults::cut(octets, netsim::CutAction::Drop);
            target
        };
        // The exchange is under 120 octets: the last cut lets it finish.
        let reactions: Vec<Reaction> = (1..=120).map(|n| self_dependency(&cut_after(n))).collect();
        assert!(
            reactions
                .iter()
                .all(|r| matches!(r, Reaction::RstStream | Reaction::Unknown)),
            "{reactions:?}"
        );
        assert!(reactions.contains(&Reaction::Unknown));
        assert_eq!(reactions.last(), Some(&Reaction::RstStream));
    }

    #[test]
    fn priority_servers_pass_algorithm1() {
        for profile in [
            ServerProfile::h2o(),
            ServerProfile::nghttpd(),
            ServerProfile::apache(),
        ] {
            let name = profile.name.clone();
            let report = algorithm1(&target_for(profile));
            assert!(report.by_last_frame, "{name} must pass Algorithm 1");
            assert!(report.by_first_frame, "{name} first-frame rule");
        }
    }

    #[test]
    fn fifo_servers_fail_algorithm1() {
        for profile in [
            ServerProfile::nginx(),
            ServerProfile::litespeed(),
            ServerProfile::tengine(),
        ] {
            let name = profile.name.clone();
            let report = algorithm1(&target_for(profile));
            assert!(!report.by_last_frame, "{name} must fail Algorithm 1");
        }
    }

    #[test]
    fn completion_order_mode_passes_only_the_last_frame_rule() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.priority_mode = h2server::behavior::PriorityMode::CompletionOrder;
        let report = algorithm1(&target_for(profile));
        assert!(report.by_last_frame, "completion follows priority");
        assert!(!report.by_first_frame, "first frames flush FCFS");
    }

    #[test]
    fn first_frame_only_mode_passes_only_the_first_frame_rule() {
        let mut profile = ServerProfile::rfc7540();
        profile.behavior.priority_mode = h2server::behavior::PriorityMode::FirstFrameOnly;
        let report = algorithm1(&target_for(profile));
        assert!(report.by_first_frame, "first frames follow the tree");
        assert!(!report.by_last_frame, "completion is round-robin");
    }

    #[test]
    fn litespeed_blocks_headers_at_zero_connection_window() {
        let report = algorithm1(&target_for(ServerProfile::litespeed()));
        assert!(report.headers_blocked_at_zero_conn_window);
        let report = algorithm1(&target_for(ServerProfile::h2o()));
        assert!(!report.headers_blocked_at_zero_conn_window);
    }

    #[test]
    fn naive_check_misclassifies_priority_capable_servers() {
        // The methodological point of Algorithm 1: without the
        // window-drain preparation, a server that honors priorities is
        // judged by its FCFS burst behavior and fails the ordering rules.
        let target = target_for(ServerProfile::h2o());
        let naive = naive_order_check(&target);
        assert!(
            !naive.by_first_frame,
            "naive check must be confounded by arrival order"
        );
        let proper = algorithm1(&target);
        assert!(
            proper.by_last_frame && proper.by_first_frame,
            "Algorithm 1 recovers the true verdict"
        );
    }
}
