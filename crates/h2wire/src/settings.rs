//! SETTINGS parameters (RFC 7540 §6.5).

#![allow(
    clippy::indexing_slicing,
    reason = "dense wire codec; lengths verified before fixed-offset reads"
)]

use crate::error::DecodeFrameError;
use crate::header::FrameKind;
use crate::registry::registry;

/// Default `SETTINGS_HEADER_TABLE_SIZE` (RFC 7540 §6.5.2).
pub const DEFAULT_HEADER_TABLE_SIZE: u32 = 4_096;
/// Default `SETTINGS_INITIAL_WINDOW_SIZE` for streams and the connection.
pub const DEFAULT_INITIAL_WINDOW_SIZE: u32 = 65_535;
/// Default `SETTINGS_MAX_FRAME_SIZE`.
pub const DEFAULT_MAX_FRAME_SIZE: u32 = 16_384;
/// Largest legal `SETTINGS_MAX_FRAME_SIZE` (2^24 - 1).
pub const MAX_MAX_FRAME_SIZE: u32 = (1 << 24) - 1;
/// Largest legal flow-control window (2^31 - 1).
pub const MAX_WINDOW_SIZE: u32 = (1 << 31) - 1;
/// The value RFC 7540 recommends `SETTINGS_MAX_CONCURRENT_STREAMS` not be
/// smaller than (§6.5.2: "it is recommended that this value be no smaller
/// than 100"). The paper checks announced values against this floor.
pub const RECOMMENDED_MIN_CONCURRENT_STREAMS: u32 = 100;

registry! {
    /// Identifier of a SETTINGS parameter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum SettingId via to_u16 {
        /// A parameter unknown to RFC 7540; receivers must ignore it.
        Unknown(u16),
        /// Maximum size of the peer's HPACK dynamic table (0x1).
        HeaderTableSize = 0x1 => "SETTINGS_HEADER_TABLE_SIZE",
        /// Whether server push is permitted (0x2).
        EnablePush = 0x2 => "SETTINGS_ENABLE_PUSH",
        /// Maximum number of concurrent streams the sender allows (0x3).
        MaxConcurrentStreams = 0x3 => "SETTINGS_MAX_CONCURRENT_STREAMS",
        /// Initial stream-level flow-control window (0x4).
        InitialWindowSize = 0x4 => "SETTINGS_INITIAL_WINDOW_SIZE",
        /// Largest frame payload the sender will accept (0x5).
        MaxFrameSize = 0x5 => "SETTINGS_MAX_FRAME_SIZE",
        /// Advisory maximum header list size (0x6).
        MaxHeaderListSize = 0x6 => "SETTINGS_MAX_HEADER_LIST_SIZE",
    }
}

/// An ordered list of SETTINGS parameters as carried in one frame.
///
/// Order is preserved because RFC 7540 §6.5.3 requires parameters to be
/// processed in the order they appear; the last value of a repeated
/// parameter wins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Settings {
    params: Vec<(SettingId, u32)>,
}

impl Settings {
    /// Creates an empty parameter list.
    pub fn new() -> Settings {
        Settings::default()
    }

    /// Appends a parameter, keeping wire order.
    ///
    /// Returns `self` for chaining.
    pub fn push(&mut self, id: SettingId, value: u32) -> &mut Settings {
        self.params.push((id, value));
        self
    }

    /// Builder-style append.
    pub fn with(mut self, id: SettingId, value: u32) -> Settings {
        self.params.push((id, value));
        self
    }

    /// The effective value of a parameter: the last occurrence wins.
    pub fn get(&self, id: SettingId) -> Option<u32> {
        self.params
            .iter()
            .rev()
            .find(|(i, _)| *i == id)
            .map(|(_, v)| *v)
    }

    /// Iterates parameters in wire order.
    pub fn iter(&self) -> impl Iterator<Item = (SettingId, u32)> + '_ {
        self.params.iter().copied()
    }

    /// Number of parameters carried.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are carried.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Validates every parameter value per RFC 7540 §6.5.2.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFrameError::InvalidSettingValue`] for: `ENABLE_PUSH`
    /// outside {0, 1}, `INITIAL_WINDOW_SIZE` above 2^31-1, or
    /// `MAX_FRAME_SIZE` outside [2^14, 2^24-1].
    pub fn validate(&self) -> Result<(), DecodeFrameError> {
        for (id, value) in self.iter() {
            let bad = match id {
                SettingId::EnablePush => value > 1,
                SettingId::InitialWindowSize => value > MAX_WINDOW_SIZE,
                SettingId::MaxFrameSize => {
                    !(DEFAULT_MAX_FRAME_SIZE..=MAX_MAX_FRAME_SIZE).contains(&value)
                }
                _ => false,
            };
            if bad {
                return Err(DecodeFrameError::InvalidSettingValue {
                    id: id.to_u16(),
                    value,
                });
            }
        }
        Ok(())
    }

    /// Serializes the parameter list as a SETTINGS payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for (id, value) in self.iter() {
            out.extend_from_slice(&id.to_u16().to_be_bytes());
            out.extend_from_slice(&value.to_be_bytes());
        }
    }

    /// Parses a SETTINGS payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFrameError::InvalidLength`] when the payload is not
    /// a multiple of six octets, and propagates value validation errors.
    pub fn decode(payload: &[u8]) -> Result<Settings, DecodeFrameError> {
        if !payload.len().is_multiple_of(6) {
            return Err(DecodeFrameError::InvalidLength {
                kind: FrameKind::Settings.to_u8(),
                length: payload.len() as u32,
            });
        }
        let mut settings = Settings::new();
        for chunk in payload.chunks_exact(6) {
            let id = SettingId::from(u16::from_be_bytes([chunk[0], chunk[1]]));
            let value = u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
            settings.push(id, value);
        }
        settings.validate()?;
        Ok(settings)
    }
}

impl FromIterator<(SettingId, u32)> for Settings {
    fn from_iter<T: IntoIterator<Item = (SettingId, u32)>>(iter: T) -> Settings {
        Settings {
            params: iter.into_iter().collect(),
        }
    }
}

impl Extend<(SettingId, u32)> for Settings {
    fn extend<T: IntoIterator<Item = (SettingId, u32)>>(&mut self, iter: T) {
        self.params.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_occurrence_wins() {
        let s = Settings::new()
            .with(SettingId::InitialWindowSize, 10)
            .with(SettingId::InitialWindowSize, 20);
        assert_eq!(s.get(SettingId::InitialWindowSize), Some(20));
    }

    #[test]
    fn round_trip_preserves_order() {
        let s = Settings::new()
            .with(SettingId::MaxConcurrentStreams, 128)
            .with(SettingId::Unknown(0x99), 7)
            .with(SettingId::HeaderTableSize, 4_096);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(Settings::decode(&buf).unwrap(), s);
    }

    #[test]
    fn decode_rejects_misaligned_payload() {
        assert!(matches!(
            Settings::decode(&[0; 5]),
            Err(DecodeFrameError::InvalidLength {
                kind: 0x4,
                length: 5
            })
        ));
    }

    #[test]
    fn validate_rejects_enable_push_two() {
        let s = Settings::new().with(SettingId::EnablePush, 2);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_initial_window() {
        let s = Settings::new().with(SettingId::InitialWindowSize, MAX_WINDOW_SIZE + 1);
        assert!(s.validate().is_err());
        let s = Settings::new().with(SettingId::InitialWindowSize, MAX_WINDOW_SIZE);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_enforces_max_frame_size_bounds() {
        assert!(Settings::new()
            .with(SettingId::MaxFrameSize, 16_383)
            .validate()
            .is_err());
        assert!(Settings::new()
            .with(SettingId::MaxFrameSize, 16_384)
            .validate()
            .is_ok());
        assert!(Settings::new()
            .with(SettingId::MaxFrameSize, MAX_MAX_FRAME_SIZE)
            .validate()
            .is_ok());
        assert!(Settings::new()
            .with(SettingId::MaxFrameSize, MAX_MAX_FRAME_SIZE + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn unknown_parameters_survive_round_trip() {
        let s = Settings::new().with(SettingId::Unknown(0xff00), 42);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let parsed = Settings::decode(&buf).unwrap();
        assert_eq!(parsed.get(SettingId::Unknown(0xff00)), Some(42));
    }
}
