//! SETTINGS frame probe (§V-C): record every parameter the server
//! announces.

use h2wire::{Frame, SettingId, Settings};

use crate::client::ProbeConn;
use crate::target::Target;

/// The server's announced SETTINGS, `None` meaning "not present in the
/// frame" (the paper's NULL rows in Tables V–VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettingsReport {
    /// `SETTINGS_HEADER_TABLE_SIZE`.
    pub header_table_size: Option<u32>,
    /// `SETTINGS_ENABLE_PUSH`.
    pub enable_push: Option<u32>,
    /// `SETTINGS_MAX_CONCURRENT_STREAMS`.
    pub max_concurrent_streams: Option<u32>,
    /// `SETTINGS_INITIAL_WINDOW_SIZE`.
    pub initial_window_size: Option<u32>,
    /// `SETTINGS_MAX_FRAME_SIZE`.
    pub max_frame_size: Option<u32>,
    /// `SETTINGS_MAX_HEADER_LIST_SIZE`.
    pub max_header_list_size: Option<u32>,
    /// A SETTINGS frame was received at all.
    pub received: bool,
}

impl SettingsReport {
    /// Extracts the report from a parameter list.
    pub fn from_settings(settings: &Settings) -> SettingsReport {
        SettingsReport {
            header_table_size: settings.get(SettingId::HeaderTableSize),
            enable_push: settings.get(SettingId::EnablePush),
            max_concurrent_streams: settings.get(SettingId::MaxConcurrentStreams),
            initial_window_size: settings.get(SettingId::InitialWindowSize),
            max_frame_size: settings.get(SettingId::MaxFrameSize),
            max_header_list_size: settings.get(SettingId::MaxHeaderListSize),
            received: true,
        }
    }
}

/// Connects and records the server's announced SETTINGS.
///
/// Classifies RFC 7540 §6.5.2: SETTINGS values within their bounds.
pub fn probe(target: &Target) -> SettingsReport {
    target.obs.enter_probe(h2obs::ProbeKind::Settings);
    let mut conn = ProbeConn::establish(target, Settings::new(), 0x5e77);
    let frames = conn.exchange();
    frames
        .iter()
        .find_map(|tf| match &tf.frame {
            Frame::Settings(s) if !s.ack => Some(SettingsReport::from_settings(&s.settings)),
            _ => None,
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2server::{ServerProfile, SiteSpec};

    fn report_for(profile: ServerProfile) -> SettingsReport {
        probe(&Target::testbed(profile, SiteSpec::benchmark()))
    }

    #[test]
    fn nginx_announces_a_zero_window() {
        let report = report_for(ServerProfile::nginx());
        assert_eq!(report.initial_window_size, Some(0));
        assert_eq!(report.max_concurrent_streams, Some(128));
    }

    #[test]
    fn h2o_announces_large_window() {
        let report = report_for(ServerProfile::h2o());
        assert_eq!(report.initial_window_size, Some(16_777_216));
    }

    #[test]
    fn gse_announces_max_header_list_size() {
        let report = report_for(ServerProfile::gse());
        assert_eq!(report.max_header_list_size, Some(16_384));
        assert_eq!(report.max_frame_size, Some(16_777_215));
    }

    #[test]
    fn absent_parameters_read_as_null() {
        let report = report_for(ServerProfile::nghttpd());
        assert!(report.received);
        assert_eq!(report.header_table_size, None, "not announced = NULL");
        assert_eq!(report.enable_push, None);
    }
}
