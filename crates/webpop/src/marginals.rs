//! The paper's published marginal distributions, transcribed as data.
//!
//! Tables IV–VII are copied cell-for-cell; the Figure 2
//! `SETTINGS_MAX_CONCURRENT_STREAMS` distribution is synthesized to match
//! the figure's described shape (100 and 128 dominate; the majority of
//! sites announce ≥ 100; values span 10⁰..10⁵).

/// One row of a value-count marginal. `value = None` encodes the paper's
/// NULL (parameter absent from the SETTINGS frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueCount {
    /// Announced value (`None` = NULL).
    pub value: Option<u32>,
    /// Number of sites in experiment 1 (Jul 2016).
    pub exp1: u64,
    /// Number of sites in experiment 2 (Jan 2017).
    pub exp2: u64,
}

const fn vc(value: Option<u32>, exp1: u64, exp2: u64) -> ValueCount {
    ValueCount { value, exp1, exp2 }
}

/// Sentinel for Table VII's "unlimited" row.
pub const UNLIMITED: u32 = u32::MAX;

/// Table V: `SETTINGS_INITIAL_WINDOW_SIZE`.
pub const INITIAL_WINDOW_SIZE: &[ValueCount] = &[
    vc(None, 1_050, 1_015),
    vc(Some(0), 3_072, 7_499),
    vc(Some(32_768), 3, 59),
    vc(Some(65_535), 49, 106),
    vc(Some(65_536), 20_477, 40_612),
    vc(Some(131_072), 1, 1),
    vc(Some(262_144), 1, 1),
    vc(Some(1_048_576), 10_799, 10_929),
    vc(Some(16_777_216), 11, 15),
    vc(Some(20_000_000), 1, 0),
    vc(Some(2_147_483_647), 8_926, 4_062),
];

/// Table VI: `SETTINGS_MAX_FRAME_SIZE`.
pub const MAX_FRAME_SIZE: &[ValueCount] = &[
    vc(None, 1_050, 1_015),
    vc(Some(16_384), 24_781, 25_987),
    vc(Some(1_048_576), 27, 81),
    vc(Some(16_777_215), 18_532, 37_216),
];

/// Table VII: `SETTINGS_MAX_HEADER_LIST_SIZE` ("unlimited" encoded as
/// [`UNLIMITED`]).
pub const MAX_HEADER_LIST_SIZE: &[ValueCount] = &[
    vc(None, 1_050, 1_015),
    vc(Some(UNLIMITED), 32_568, 52_311),
    vc(Some(16_384), 10_717, 10_806),
    vc(Some(32_768), 3, 59),
    vc(Some(81_920), 2, 3),
    vc(Some(131_072), 24, 25),
    vc(Some(1_048_896), 26, 80),
];

/// Figure 2 (synthesized): `SETTINGS_MAX_CONCURRENT_STREAMS`.
pub const MAX_CONCURRENT_STREAMS: &[ValueCount] = &[
    vc(None, 1_050, 1_015),
    vc(Some(1), 60, 70),
    vc(Some(10), 150, 160),
    vc(Some(32), 320, 300),
    vc(Some(50), 200, 240),
    vc(Some(64), 260, 300),
    vc(Some(100), 18_600, 30_500),
    vc(Some(101), 540, 600),
    vc(Some(120), 230, 260),
    vc(Some(128), 15_800, 22_900),
    vc(Some(200), 990, 1_300),
    vc(Some(250), 430, 500),
    vc(Some(256), 2_950, 3_300),
    vc(Some(500), 470, 560),
    vc(Some(512), 310, 380),
    vc(Some(1_000), 900, 1_050),
    vc(Some(1_024), 260, 310),
    vc(Some(2_000), 190, 220),
    vc(Some(4_096), 150, 180),
    vc(Some(10_000), 250, 298),
    vc(Some(100_000), 280, 350),
];

/// Table IV server families plus the long tail; counts are sites in each
/// experiment (headers-returning sites only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// LiteSpeed.
    Litespeed,
    /// Stock Nginx.
    Nginx,
    /// Google's GSE.
    Gse,
    /// Tengine.
    Tengine,
    /// cloudflare-nginx.
    CloudflareNginx,
    /// IdeaWebServer/v0.80.
    IdeaWeb,
    /// Tengine/Aserver (the renamed tmall.com fleet).
    TengineAserver,
    /// Everything else — 216/338 further server strings.
    Tail,
}

impl Family {
    /// Every family, in Table IV order (tail last).
    pub const ALL: [Family; 8] = [
        Family::Litespeed,
        Family::Nginx,
        Family::Gse,
        Family::Tengine,
        Family::CloudflareNginx,
        Family::IdeaWeb,
        Family::TengineAserver,
        Family::Tail,
    ];

    /// Stable short code used in persisted campaign records. Codes are
    /// part of the `h2campaign-v3` on-disk schema: renaming one is a
    /// format break and requires a schema bump.
    pub fn code(self) -> &'static str {
        match self {
            Family::Litespeed => "litespeed",
            Family::Nginx => "nginx",
            Family::Gse => "gse",
            Family::Tengine => "tengine",
            Family::CloudflareNginx => "cf-nginx",
            Family::IdeaWeb => "ideaweb",
            Family::TengineAserver => "tengine-aserver",
            Family::Tail => "tail",
        }
    }

    /// Inverse of [`Family::code`].
    pub fn parse_code(code: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.code() == code)
    }
}

/// Table IV (plus the residual tail so each column sums to the
/// experiment's headers-returning site count).
pub const FAMILIES: &[(Family, u64, u64)] = &[
    (Family::Litespeed, 12_637, 13_626),
    (Family::Nginx, 11_293, 27_394),
    (Family::Gse, 9_928, 9_929),
    (Family::Tengine, 2_535, 674),
    (Family::CloudflareNginx, 1_197, 1_766),
    (Family::IdeaWeb, 1_128, 1_261),
    (Family::TengineAserver, 0, 2_620),
    (Family::Tail, 5_672, 7_029),
];

/// Distinct server-name strings observed (§V-B2).
pub const SERVER_KINDS: (u64, u64) = (223, 345);

/// Draws from a marginal by experiment, using a uniform `u` in `[0, 1)`.
pub fn draw(marginal: &[ValueCount], second_experiment: bool, u: f64) -> Option<u32> {
    let total: u64 = marginal
        .iter()
        .map(|vc| if second_experiment { vc.exp2 } else { vc.exp1 })
        .sum();
    let mut threshold = (u * total as f64) as u64;
    for vc in marginal {
        let count = if second_experiment { vc.exp2 } else { vc.exp1 };
        if threshold < count {
            return vc.value;
        }
        threshold -= count;
    }
    marginal.last().and_then(|vc| vc.value)
}

/// Draws from a marginal *excluding* the NULL row (for sites that do
/// announce the parameter).
pub fn draw_non_null(marginal: &[ValueCount], second_experiment: bool, u: f64) -> u32 {
    let rows: Vec<ValueCount> = marginal
        .iter()
        .filter(|vc| vc.value.is_some())
        .copied()
        .collect();
    draw(&rows, second_experiment, u).expect("non-null rows only")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_sum(marginal: &[ValueCount], second: bool) -> u64 {
        marginal
            .iter()
            .map(|vc| if second { vc.exp2 } else { vc.exp1 })
            .sum()
    }

    #[test]
    fn table_v_columns_sum_to_headers_sites() {
        assert_eq!(column_sum(INITIAL_WINDOW_SIZE, false), 44_390);
        assert_eq!(column_sum(INITIAL_WINDOW_SIZE, true), 64_299);
    }

    #[test]
    fn table_vi_columns_sum_to_headers_sites() {
        assert_eq!(column_sum(MAX_FRAME_SIZE, false), 44_390);
        assert_eq!(column_sum(MAX_FRAME_SIZE, true), 64_299);
    }

    #[test]
    fn table_vii_columns_sum_to_headers_sites() {
        assert_eq!(column_sum(MAX_HEADER_LIST_SIZE, false), 44_390);
        assert_eq!(column_sum(MAX_HEADER_LIST_SIZE, true), 64_299);
    }

    #[test]
    fn family_columns_sum_to_headers_sites() {
        let exp1: u64 = FAMILIES.iter().map(|(_, a, _)| a).sum();
        let exp2: u64 = FAMILIES.iter().map(|(_, _, b)| b).sum();
        assert_eq!(exp1, 44_390);
        assert_eq!(exp2, 64_299);
    }

    #[test]
    fn draw_covers_the_support() {
        let mut seen_zero = false;
        let mut seen_null = false;
        for i in 0..1_000 {
            let u = i as f64 / 1_000.0;
            match draw(INITIAL_WINDOW_SIZE, false, u) {
                None => seen_null = true,
                Some(0) => seen_zero = true,
                _ => {}
            }
        }
        assert!(seen_null && seen_zero);
    }

    #[test]
    fn draw_proportions_track_counts() {
        let n = 100_000;
        let hits = (0..n)
            .filter(|i| draw(MAX_FRAME_SIZE, false, *i as f64 / n as f64) == Some(16_384))
            .count();
        let expect = 24_781.0 / 44_390.0;
        let got = hits as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "got {got}, expect {expect}");
    }

    #[test]
    fn draw_non_null_never_yields_null() {
        for i in 0..500 {
            let u = i as f64 / 500.0;
            let _ = draw_non_null(MAX_HEADER_LIST_SIZE, true, u);
        }
    }

    #[test]
    fn family_codes_round_trip_and_are_distinct() {
        for family in Family::ALL {
            assert_eq!(Family::parse_code(family.code()), Some(family));
        }
        let mut codes: Vec<&str> = Family::ALL.iter().map(|f| f.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Family::ALL.len());
        assert_eq!(Family::parse_code("apache"), None);
    }
}
