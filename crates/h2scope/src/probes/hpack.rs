//! HPACK probe (§III-E): send H identical requests and measure the
//! compression ratio r = Σ Sᵢ / (S₁ · H) over the response HEADERS
//! frames. A server that indexes response headers drives r toward 1/H; a
//! server that never does stays at 1.

use h2wire::{Frame, SettingId, Settings};

use crate::client::{ProbeConn, TimedFrame};
use crate::target::Target;

/// Result of the HPACK probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpackReport {
    /// Response HEADERS frame sizes S₁..S_H (frame header + block), one
    /// per response that came back.
    pub sizes: Vec<usize>,
}

impl HpackReport {
    /// The compression ratio r = Σ Sᵢ / (S₁ · H) (equation 1 in the
    /// paper), H being the number of responses measured. NaN when there
    /// is no S₁ to divide by: `sizes` empty (a survey keeps no such
    /// report) or S₁ = 0.
    pub fn ratio(&self) -> f64 {
        match self.sizes.first() {
            Some(&first) if first > 0 => {
                self.sizes.iter().sum::<usize>() as f64 / (first * self.sizes.len()) as f64
            }
            _ => f64::NAN,
        }
    }

    /// Whether the measurement should be discarded per §V-G (sites that
    /// inject cookies make r exceed 1).
    pub fn filtered(&self) -> bool {
        self.ratio() > 1.0
    }
}

/// Sends `h` identical HEAD requests for `/` and records the response
/// header sizes the ratio reads ([`HpackReport::ratio`]); `sizes` is
/// empty when no response HEADERS came back (a survey keeps no report).
/// A HEAD response carries the GET's header block without the body (RFC
/// 7231 §4.3.2), and the ratio reads only the header blocks — so the
/// connection announces `SETTINGS_ENABLE_PUSH = 0`: pushed responses are
/// octets the ratio never reads.
///
/// Classifies RFC 7540 §4.3: the HPACK context spans the connection.
pub fn probe(target: &Target, h: usize) -> HpackReport {
    target.obs.enter_probe(h2obs::ProbeKind::Hpack);
    assert!(h >= 2, "the ratio needs at least two samples");
    let mut conn = ProbeConn::establish(target, no_push(), 0x4bac);
    conn.exchange();
    let mut sizes = Vec::with_capacity(h);
    for i in 0..h {
        let stream = 1 + 2 * i as u32;
        let (frames, _) = conn.fetch_as(stream, "HEAD", "/");
        sizes.extend(headers_sizes(&frames, stream));
    }
    HpackReport { sizes }
}

/// The probe connection's SETTINGS: push disabled.
fn no_push() -> Settings {
    Settings::new().with(SettingId::EnablePush, 0)
}

/// The sizes (frame header + block) of the HEADERS frames on `stream`.
fn headers_sizes(frames: &[TimedFrame], stream: u32) -> impl Iterator<Item = usize> + '_ {
    frames.iter().filter_map(move |tf| match &tf.frame {
        Frame::Headers(hf) if hf.stream_id.value() == stream => {
            Some(hf.fragment.len() + h2wire::FRAME_HEADER_LEN)
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn ratio_for(profile: ServerProfile) -> HpackReport {
        probe(&Target::testbed(profile, SiteSpec::benchmark()), 8)
    }

    #[test]
    fn indexing_servers_compress_well() {
        // GSE/LiteSpeed territory in Figures 4/5: r < 0.3.
        for profile in [
            ServerProfile::gse(),
            ServerProfile::litespeed(),
            ServerProfile::h2o(),
        ] {
            let name = profile.name.clone();
            let report = ratio_for(profile);
            assert_eq!(report.sizes.len(), 8);
            assert!(report.ratio() < 0.3, "{name}: r = {}", report.ratio());
            assert!(!report.filtered());
        }
    }

    #[test]
    fn non_indexing_servers_stay_at_one() {
        // The Nginx/Tengine/IdeaWebServer population: r = 1.
        for profile in [
            ServerProfile::nginx(),
            ServerProfile::tengine(),
            ServerProfile::ideaweb(),
        ] {
            let name = profile.name.clone();
            let report = ratio_for(profile);
            assert!(
                (report.ratio() - 1.0).abs() < 1e-9,
                "{name}: r = {}",
                report.ratio()
            );
        }
    }

    #[test]
    fn cookie_injection_pushes_ratio_above_one() {
        let report = ratio_for(ServerProfile::tengine_aserver());
        assert!(report.ratio() > 1.0, "r = {}", report.ratio());
        assert!(report.filtered(), "§V-G filters these sites out");
    }

    /// The probe's HEAD requests read the header blocks GETs read: on
    /// every profile (the cookie-injecting ones included) the sizes equal
    /// those of the same eight requests sent as GETs, bodies and all.
    #[test]
    fn head_measures_what_get_measured() {
        for (name, profile) in ServerProfile::all() {
            let target = Target::testbed(profile(), SiteSpec::testbed());
            let mut conn = ProbeConn::establish(&target, no_push(), 0x4bac);
            conn.exchange();
            let mut get_sizes = Vec::new();
            for stream in (1..16).step_by(2) {
                get_sizes.extend(headers_sizes(&conn.fetch(stream, "/").0, stream));
            }
            assert_eq!(get_sizes.len(), 8, "{name}");
            assert_eq!(probe(&target, 8).sizes, get_sizes, "{name}");
        }
    }

    #[test]
    fn sizes_are_monotone_nonincreasing_for_indexing_servers() {
        let report = ratio_for(ServerProfile::gse());
        assert!(report.sizes[1] < report.sizes[0]);
        assert!(report.sizes.windows(2).skip(1).all(|w| w[1] <= w[0]));
    }
}
