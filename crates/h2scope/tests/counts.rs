//! The count contract: what one survey of each profile puts on the wire,
//! counted by an `Obs::campaign` handle. These are exact equalities, not
//! budgets: a change that moves one re-pins it and says why.

use h2obs::{CampaignSnapshot, Obs};
use h2scope::{probes, H2Scope, ProbeConn, Target};
use h2server::{ServerProfile, SiteSpec};
use h2wire::Settings;

/// Frames and octets each way, and the header-block octets among those
/// received: `[frames sent, octets sent, frames received, octets
/// received, header-block octets received]`.
type Counts = [u64; 5];

/// Per profile: one whole survey of `SiteSpec::testbed()`, and the HPACK
/// probe's one connection within it (its eight HEAD requests for `/`).
#[rustfmt::skip]
const PINS: [(&str, Counts, Counts); 11] = [
    ("nginx",            [51, 1363, 181, 1912820, 2179], [9, 197, 11, 833, 712]),
    ("litespeed",        [51, 1363, 167, 1911276, 802], [9, 197, 10, 239, 131]),
    ("h2o",              [67, 1571, 197, 2026796, 1319], [9, 197, 10, 239, 131]),
    ("nghttpd",          [67, 1571, 197, 2026890, 1409], [9, 197, 10, 248, 140]),
    ("tengine",          [51, 1363, 181, 1912843, 2202], [9, 197, 11, 841, 720]),
    ("apache",           [67, 1571, 197, 2026830, 1349], [9, 197, 10, 242, 134]),
    ("rfc7540",          [67, 1571, 197, 2026842, 1369], [9, 197, 10, 244, 136]),
    ("gse",              [51, 1363, 171, 1911524, 937], [9, 197, 10, 241, 127]),
    ("cloudflare-nginx", [67, 1571, 195, 2028762, 3319], [9, 197, 10, 844, 736]),
    ("ideaweb",          [51, 1363, 169, 1912851, 2294], [9, 197, 10, 866, 752]),
    ("tengine-aserver",  [51, 1363, 181, 1913200, 2559], [9, 197, 11, 1029, 908]),
];

fn counts(s: &CampaignSnapshot) -> Counts {
    [
        s.client_sent.iter().sum(),
        s.bytes_to_server,
        s.client_received.iter().sum(),
        s.bytes_to_client,
        s.header_block_octets,
    ]
}

/// Runs `probe` against `profile` on the testbed site with a fresh
/// campaign handle and returns what the handle counted.
fn counted(make: fn() -> ServerProfile, probe: impl FnOnce(&Target)) -> Counts {
    let mut target = Target::testbed(make(), SiteSpec::testbed());
    target.obs = Obs::campaign(0);
    probe(&target);
    counts(&target.obs.snapshot().expect("a campaign handle records"))
}

#[test]
fn a_survey_moves_exactly_its_pinned_frames_and_octets() {
    let all = ServerProfile::all();
    assert_eq!(all.map(|(name, _)| name), PINS.map(|(name, ..)| name));
    let mut moved = Vec::new();
    for ((name, make), (_, survey, hpack)) in all.into_iter().zip(PINS) {
        let got = (
            counted(make, |t| drop(H2Scope::new().survey(t))),
            counted(make, |t| drop(probes::hpack::probe(t, 8))),
        );
        if got != (survey, hpack) {
            moved.push(format!("(\"{name}\", {:?}, {:?}),", got.0, got.1));
        }
    }
    assert!(
        moved.is_empty(),
        "counts moved; re-pin with the reason:\n{}",
        moved.join("\n")
    );
}

/// The to-server octets the pins read off the pipe are exactly what the
/// client handed it.
#[test]
fn pipe_octets_to_the_server_are_what_the_client_sent() {
    let mut sent = (0, 0);
    let [frames, octets, ..] = counted(ServerProfile::nginx, |t| {
        let mut conn = ProbeConn::establish(t, Settings::new(), 1);
        conn.exchange();
        conn.fetch(1, "/");
        conn.fetch(3, "/big/0");
        sent = conn.sent();
    });
    assert_eq!((frames, octets), sent);
}
