//! Dependency-aware page-load model for the push experiments
//! (Figure 3 and the `repro push-study` sweep).
//!
//! The paper loads 15 push-enabled sites 30 times each in Firefox with
//! push on and off. The model browser here walks the site's object
//! dependency graph: it requests the front page, "parses" each finished
//! object to discover its children ([`h2server::SiteSpec::children`]),
//! and requests every child that was not already promised by the
//! server — so each un-pushed dependency level costs at least one extra
//! round trip, which is exactly the latency push can remove (and
//! over-push can squander on bytes the page never needed).

use std::collections::{BTreeMap, BTreeSet};

use h2wire::{ErrorCode, Frame, RstStreamFrame, SettingId, Settings, StreamId};
use netsim::time::SimDuration;

use crate::client::ProbeConn;
use crate::target::Target;

/// Why a page load ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Every discovered object arrived.
    Complete,
    /// The exchange went quiet with objects still outstanding. The
    /// measurement is partial: sweeps must *count* such loads, never
    /// average them into page-load-time statistics.
    Stalled,
}

/// One page load measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageLoad {
    /// Time from the page request to the last byte of page + assets.
    pub load_time: SimDuration,
    /// Pushed streams that *delivered* a complete body. A promise whose
    /// stream was reset or never finished does not count.
    pub pushed_assets: usize,
    /// PUSH_PROMISE frames received (≥ `pushed_assets`).
    pub promised: usize,
    /// How the load ended.
    pub outcome: LoadOutcome,
    /// Objects fully delivered, the page itself included.
    pub objects: usize,
    /// Response body octets delivered across all objects.
    pub bytes: u64,
}

impl PageLoad {
    /// `true` when every discovered object arrived.
    pub fn complete(&self) -> bool {
        self.outcome == LoadOutcome::Complete
    }
}

/// Knobs for one page load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions<'a> {
    /// Announce `SETTINGS_ENABLE_PUSH` accordingly.
    pub enable_push: bool,
    /// Connection seed.
    pub seed: u64,
    /// Promised paths the browser refuses with RST_STREAM(CANCEL) —
    /// the "already cached" reaction. A refused object is fetched
    /// normally once a parent references it.
    pub refuse: &'a [&'a str],
}

/// Loads the front page with push enabled or disabled.
pub fn page_load(target: &Target, enable_push: bool, seed: u64) -> PageLoad {
    page_load_with(
        target,
        &LoadOptions {
            enable_push,
            seed,
            refuse: &[],
        },
    )
}

/// [`page_load`] with full control (see [`LoadOptions`]).
pub fn page_load_with(target: &Target, opts: &LoadOptions) -> PageLoad {
    target.obs.enter_probe(h2obs::ProbeKind::PageLoad);
    let settings = Settings::new().with(SettingId::EnablePush, u32::from(opts.enable_push));
    let mut conn = ProbeConn::establish(target, settings, opts.seed);
    conn.exchange();

    let t0 = conn.now();
    conn.get(1, "/", None);

    // Streams whose END_STREAM is still outstanding, and each stream's
    // object path ("parsing" a finished object consults the site's
    // dependency graph under that path).
    let mut expected: BTreeSet<u32> = BTreeSet::from([1]);
    let mut path_of: BTreeMap<u32, String> = BTreeMap::from([(1, "/".to_string())]);
    // Paths already covered by a request or an accepted promise.
    let mut fetched: BTreeSet<String> = BTreeSet::from(["/".to_string()]);
    let mut pending: Vec<String> = Vec::new();
    let mut promised = 0usize;
    let mut delivered_pushes = 0usize;
    let mut objects = 0usize;
    let mut bytes = 0u64;
    let mut next_stream = 3u32;
    let outcome;

    loop {
        let frames = conn.exchange();
        let mut sent_something = false;
        let mut finished: Vec<u32> = Vec::new();
        for tf in &frames {
            match &tf.frame {
                Frame::PushPromise(p) => {
                    promised += 1;
                    let id = p.promised_stream_id.value();
                    let path = tf
                        .headers
                        .as_ref()
                        .and_then(|hs| hs.iter().find(|h| h.name == ":path"))
                        .map(|h| h.value.clone());
                    let Some(path) = path else { continue };
                    if opts.refuse.contains(&path.as_str()) {
                        // Decline the push; if a parent later references
                        // the object, it is fetched the ordinary way.
                        conn.send(Frame::RstStream(RstStreamFrame {
                            stream_id: StreamId::new(id),
                            code: ErrorCode::Cancel,
                        }));
                        sent_something = true;
                        continue;
                    }
                    expected.insert(id);
                    path_of.insert(id, path.clone());
                    fetched.insert(path);
                }
                Frame::Data(d) => {
                    conn.replenish(d.stream_id.value(), d.flow_controlled_len());
                    sent_something = true;
                    bytes += d.data.len() as u64;
                    if d.end_stream {
                        finished.push(d.stream_id.value());
                    }
                }
                Frame::Headers(h) if h.end_stream => finished.push(h.stream_id.value()),
                Frame::RstStream(r) => {
                    // The server gave up on this stream; a reset push is
                    // re-fetched as a normal request (the promise told
                    // the browser the object exists).
                    let id = r.stream_id.value();
                    if expected.remove(&id) {
                        if let Some(path) = path_of.remove(&id) {
                            if id % 2 == 0 {
                                fetched.remove(&path);
                                pending.push(path);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for id in finished {
            if !expected.remove(&id) {
                continue;
            }
            objects += 1;
            if id % 2 == 0 {
                delivered_pushes += 1;
            }
            // "Parse" the finished object: discover its children.
            if let Some(path) = path_of.get(&id) {
                for child in target.site.children(path) {
                    if !fetched.contains(child) {
                        pending.push(child.clone());
                    }
                }
            }
        }
        for path in pending.drain(..) {
            if !fetched.insert(path.clone()) {
                continue; // promised (or requested) in the meantime
            }
            conn.get(next_stream, &path, None);
            expected.insert(next_stream);
            path_of.insert(next_stream, path);
            next_stream += 2;
            sent_something = true;
        }
        if expected.is_empty() {
            outcome = LoadOutcome::Complete;
            break;
        }
        if frames.is_empty() && !sent_something {
            outcome = LoadOutcome::Stalled;
            break;
        }
    }

    PageLoad {
        load_time: conn.now() - t0,
        pushed_assets: delivered_pushes,
        promised,
        outcome,
        objects,
        bytes,
    }
}

/// Runs the paper's experiment: `loads` page loads with push enabled and
/// disabled, returning (enabled, disabled) load-time samples in ms.
pub fn compare(target: &Target, loads: usize) -> (Vec<f64>, Vec<f64>) {
    let mut enabled = Vec::with_capacity(loads);
    let mut disabled = Vec::with_capacity(loads);
    for i in 0..loads {
        let seed = 0x9a6e ^ (i as u64) << 8;
        enabled.push(page_load(target, true, seed).load_time.as_millis_f64());
        disabled.push(page_load(target, false, seed).load_time.as_millis_f64());
    }
    (enabled, disabled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};
    use netsim::LinkSpec;

    fn push_target(profile: ServerProfile) -> Target {
        let mut target = Target::testbed(profile, SiteSpec::page_with_assets(8, 20_000));
        target.link = LinkSpec::wan(40);
        target
    }

    #[test]
    fn push_reduces_page_load_time() {
        let target = push_target(ServerProfile::h2o());
        let with_push = page_load(&target, true, 1);
        let without_push = page_load(&target, false, 1);
        assert_eq!(with_push.pushed_assets, 8);
        assert_eq!(with_push.promised, 8);
        assert!(with_push.complete());
        assert_eq!(without_push.pushed_assets, 0);
        assert!(without_push.complete());
        assert_eq!(without_push.objects, 9, "page + 8 assets");
        assert!(
            with_push.load_time < without_push.load_time,
            "push {} vs no-push {}",
            with_push.load_time,
            without_push.load_time
        );
    }

    #[test]
    fn push_incapable_server_shows_no_difference_in_shape() {
        let target = push_target(ServerProfile::nginx());
        let with_push = page_load(&target, true, 1);
        assert_eq!(with_push.pushed_assets, 0, "nginx pushes nothing");
    }

    #[test]
    fn compare_produces_paired_samples() {
        let target = push_target(ServerProfile::apache());
        let (enabled, disabled) = compare(&target, 5);
        assert_eq!(enabled.len(), 5);
        assert_eq!(disabled.len(), 5);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&enabled) < mean(&disabled), "Figure 3's typical case");
    }

    #[test]
    fn refused_push_is_not_counted_as_delivered() {
        // The browser cancels one promised stream; the object is then
        // fetched normally once the page references it, so the load
        // still completes — but only 7 pushes *delivered*.
        let target = push_target(ServerProfile::h2o());
        let load = page_load_with(
            &target,
            &LoadOptions {
                enable_push: true,
                seed: 1,
                refuse: &["/asset/3"],
            },
        );
        assert_eq!(load.promised, 8, "all promises were made");
        assert_eq!(load.pushed_assets, 7, "the reset push never delivered");
        assert!(load.complete());
        assert_eq!(load.objects, 9, "the refused asset was re-fetched");
    }

    #[test]
    fn multi_level_dependencies_cost_a_round_trip_per_level_unless_pushed() {
        let mut target = Target::testbed(ServerProfile::h2o(), SiteSpec::page_with_tree());
        target.link = LinkSpec::wan(40);
        let without_push = page_load(&target, false, 1);
        assert!(without_push.complete());
        assert_eq!(without_push.objects, 6, "all three levels discovered");
        let with_push = page_load(&target, true, 1);
        assert!(with_push.complete());
        // Policy push-all covers level 1 only; the
        // leaves are still discovered from their parents.
        assert_eq!(with_push.pushed_assets, 3);
        assert_eq!(with_push.objects, 6);
        assert!(
            with_push.load_time < without_push.load_time,
            "pushing level 1 removes a discovery round trip"
        );
    }

    #[test]
    fn mute_server_yields_a_stalled_outcome() {
        let mut profile = ServerProfile::h2o();
        profile.behavior.mute = true;
        let target = push_target(profile);
        let load = page_load(&target, true, 1);
        assert_eq!(load.outcome, LoadOutcome::Stalled);
        assert_eq!(load.objects, 0);
    }
}
