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
    ("nginx",            [51, 1357, 181, 1912820, 2179], [9, 191, 11, 833, 712]),
    ("litespeed",        [51, 1357, 167, 1911276, 802], [9, 191, 10, 239, 131]),
    ("h2o",              [131, 2397, 277, 2486709, 1664], [73, 1023, 90, 460152, 476]),
    ("nghttpd",          [131, 2397, 277, 2486803, 1754], [73, 1023, 90, 460161, 485]),
    ("tengine",          [51, 1357, 181, 1912843, 2202], [9, 191, 11, 841, 720]),
    ("apache",           [131, 2397, 277, 2486743, 1694], [73, 1023, 90, 460155, 479]),
    ("rfc7540",          [131, 2397, 277, 2486755, 1714], [73, 1023, 90, 460157, 481]),
    ("gse",              [51, 1357, 171, 1911524, 937], [9, 191, 10, 241, 127]),
    ("cloudflare-nginx", [131, 2397, 275, 2491186, 6175], [73, 1023, 90, 463268, 3592]),
    ("ideaweb",          [51, 1357, 169, 1912851, 2294], [9, 191, 10, 866, 752]),
    ("tengine-aserver",  [51, 1357, 181, 1913200, 2559], [9, 191, 11, 1029, 908]),
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
