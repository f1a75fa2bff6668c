//! RFC 7541 (HPACK) as reference tables, transcribed from the RFC
//! independently of `h2hpack`'s own: the Appendix A static table, the Appendix B Huffman code
//! as a bare length profile (the codes themselves are *reconstructed*
//! canonically, so agreement with the implementation proves the table
//! is the canonical prefix-free code for those lengths), the §5.1
//! prefix-integer boundaries, the §4.1 entry-size arithmetic, and the
//! §4.3/§4.4/§6.3 dynamic-table eviction and size-update rules.
//! `conformance_hpack.rs` asserts each table against `h2hpack`.

// ---------------------------------------------------------------------------
// Appendix A: the static table
// ---------------------------------------------------------------------------

/// The 61 static-table entries of RFC 7541 Appendix A, transcribed
/// independently of `h2hpack::STATIC_TABLE` (index 1 is the first
/// element). The conformance test byte-compares the two.
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

// ---------------------------------------------------------------------------
// Appendix B: the Huffman code, as a length profile
// ---------------------------------------------------------------------------

/// Code length in bits for each of the 256 octets plus EOS, straight
/// from RFC 7541 Appendix B. Appendix B is a *canonical* Huffman code
/// (codes are assigned in increasing bit-length, and within a length in
/// increasing symbol order), so this length profile fully determines
/// every codeword; [`canonical_codes`] reconstructs them.
pub const HUFFMAN_LENGTHS: [u8; 257] = [
    13, 23, 28, 28, 28, 28, 28, 28, 28, 24, 30, 28, 28, 30, 28, 28, //
    28, 28, 28, 28, 28, 28, 30, 28, 28, 28, 28, 28, 28, 28, 28, 28, //
    6, 10, 10, 12, 13, 6, 8, 11, 10, 10, 8, 11, 8, 6, 6, 6, //
    5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 8, 15, 6, 12, 10, //
    13, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, //
    7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 8, 13, 19, 13, 14, 6, //
    15, 5, 6, 5, 6, 5, 6, 6, 6, 5, 7, 7, 6, 6, 6, 5, //
    6, 7, 6, 5, 5, 6, 7, 7, 7, 7, 7, 15, 11, 14, 13, 28, //
    20, 22, 20, 20, 22, 22, 22, 23, 22, 23, 23, 23, 23, 23, 24, 23, //
    24, 24, 22, 23, 24, 23, 23, 23, 23, 21, 22, 23, 22, 23, 23, 24, //
    22, 21, 20, 22, 22, 23, 23, 21, 23, 22, 22, 24, 21, 22, 23, 23, //
    21, 21, 22, 21, 23, 22, 23, 23, 20, 22, 22, 22, 23, 22, 22, 23, //
    26, 26, 20, 19, 22, 23, 22, 25, 26, 26, 26, 27, 27, 26, 24, 25, //
    19, 21, 26, 27, 27, 26, 27, 24, 21, 21, 26, 26, 28, 27, 27, 27, //
    20, 24, 20, 21, 22, 21, 21, 23, 22, 22, 25, 25, 24, 24, 26, 23, //
    26, 27, 26, 26, 27, 27, 27, 27, 27, 28, 27, 27, 27, 27, 27, 26, //
    30,
];

/// Index of the EOS symbol in [`HUFFMAN_LENGTHS`].
pub const HUFFMAN_EOS: usize = 256;

/// The longest Appendix B codeword (EOS) is 30 bits.
pub const HUFFMAN_MAX_BITS: u8 = 30;

/// Reconstructs every codeword from [`HUFFMAN_LENGTHS`] by the
/// canonical rule: visit symbols in (length, symbol) order; each code
/// is the previous code plus one, left-shifted by the length increase.
/// Returns `(code, length)` indexed by symbol.
pub fn canonical_codes() -> Vec<(u32, u8)> {
    let mut by_len: Vec<(u8, usize)> = HUFFMAN_LENGTHS
        .iter()
        .enumerate()
        .map(|(sym, &len)| (len, sym))
        .collect();
    by_len.sort_unstable();
    let mut codes = vec![(0u32, 0u8); HUFFMAN_LENGTHS.len()];
    let mut code: u32 = 0;
    let mut prev_len: u8 = by_len.first().map_or(0, |&(len, _)| len);
    for &(len, sym) in &by_len {
        code <<= len - prev_len;
        prev_len = len;
        if let Some(slot) = codes.get_mut(sym) {
            *slot = (code, len);
        }
        code = code.wrapping_add(1);
    }
    codes
}

/// Kraft sum of the length profile, in units of 2^-30 (exact integer
/// arithmetic). A complete prefix-free code sums to exactly `1 << 30`.
pub fn kraft_sum_q30() -> u64 {
    HUFFMAN_LENGTHS
        .iter()
        .map(|&len| 1u64 << u32::from(HUFFMAN_MAX_BITS.saturating_sub(len)))
        .sum()
}

/// Every pair of reconstructed codewords where one is a bit-prefix of
/// the other. Empty for a prefix-free code.
pub fn prefix_violations() -> Vec<(usize, usize)> {
    let codes = canonical_codes();
    let mut violations = Vec::new();
    for (a, &(code_a, len_a)) in codes.iter().enumerate() {
        for (b, &(code_b, len_b)) in codes.iter().enumerate() {
            if a != b && len_a <= len_b && code_b >> (len_b - len_a) == code_a {
                violations.push((a, b));
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// §5.1: prefix integers
// ---------------------------------------------------------------------------

/// One prefix-integer boundary case: `value` encoded with an `N`-bit
/// prefix must produce exactly `encoded` (flag bits zero), and decoding
/// `encoded` must yield `value` consuming every octet.
pub struct IntegerBoundary {
    /// Prefix width in bits (1..=8).
    pub prefix_bits: u8,
    /// The value being encoded.
    pub value: u64,
    /// The exact expected octets.
    pub encoded: &'static [u8],
    /// Which boundary this row pins.
    pub note: &'static str,
}

/// The §5.1 boundaries: below / at / above each prefix maximum, the
/// RFC C.1 worked examples, multi-byte continuations, and the u32
/// ceiling the decoder accepts.
pub const INTEGER_BOUNDARIES: [IntegerBoundary; 16] = [
    IntegerBoundary {
        prefix_bits: 5,
        value: 10,
        encoded: &[0x0a],
        note: "C.1.1: 10 fits a 5-bit prefix",
    },
    IntegerBoundary {
        prefix_bits: 5,
        value: 30,
        encoded: &[0x1e],
        note: "one below the 5-bit prefix max",
    },
    IntegerBoundary {
        prefix_bits: 5,
        value: 31,
        encoded: &[0x1f, 0x00],
        note: "prefix max exactly: filled prefix + zero continuation",
    },
    IntegerBoundary {
        prefix_bits: 5,
        value: 32,
        encoded: &[0x1f, 0x01],
        note: "one past the 5-bit prefix max",
    },
    IntegerBoundary {
        prefix_bits: 5,
        value: 1337,
        encoded: &[0x1f, 0x9a, 0x0a],
        note: "C.1.2: multi-octet continuation, 7-bit groups LSB-first",
    },
    IntegerBoundary {
        prefix_bits: 8,
        value: 42,
        encoded: &[0x2a],
        note: "C.1.3: value at an octet boundary",
    },
    IntegerBoundary {
        prefix_bits: 8,
        value: 254,
        encoded: &[0xfe],
        note: "one below the 8-bit prefix max",
    },
    IntegerBoundary {
        prefix_bits: 8,
        value: 255,
        encoded: &[0xff, 0x00],
        note: "8-bit prefix max needs a zero continuation",
    },
    IntegerBoundary {
        prefix_bits: 8,
        value: 256,
        encoded: &[0xff, 0x01],
        note: "one past the 8-bit prefix max",
    },
    IntegerBoundary {
        prefix_bits: 1,
        value: 0,
        encoded: &[0x00],
        note: "degenerate 1-bit prefix holds only zero",
    },
    IntegerBoundary {
        prefix_bits: 1,
        value: 1,
        encoded: &[0x01, 0x00],
        note: "1-bit prefix max (1) spills immediately",
    },
    IntegerBoundary {
        prefix_bits: 6,
        value: 63,
        encoded: &[0x3f, 0x00],
        note: "6-bit prefix max (literal-with-indexing opcode space)",
    },
    IntegerBoundary {
        prefix_bits: 7,
        value: 126,
        encoded: &[0x7e],
        note: "one below the 7-bit prefix max (indexed opcode space)",
    },
    IntegerBoundary {
        prefix_bits: 7,
        value: 127,
        encoded: &[0x7f, 0x00],
        note: "7-bit prefix max",
    },
    IntegerBoundary {
        prefix_bits: 7,
        value: 255,
        encoded: &[0x7f, 0x80, 0x01],
        note: "continuation crossing a 7-bit group boundary",
    },
    IntegerBoundary {
        prefix_bits: 7,
        value: 4_294_967_295,
        encoded: &[0x7f, 0x80, 0xff, 0xff, 0xff, 0x0f],
        note: "u32::MAX, the largest value the decoder accepts",
    },
];

/// Encoded integers the decoder must *refuse* as overflow (value above
/// u32::MAX, RFC 7541 §5.1 "excessively large" guidance).
pub const INTEGER_OVERFLOWS: [(u8, &[u8]); 2] = [
    // u32::MAX + 1 with a 7-bit prefix.
    (7, &[0x7f, 0x81, 0xff, 0xff, 0xff, 0x0f]),
    // A continuation contributing bits far past 2^32.
    (5, &[0x1f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
];

/// Encoded integers cut off mid-continuation; decoding must report
/// truncation, never a value.
pub const INTEGER_TRUNCATIONS: [(u8, &[u8]); 2] = [(5, &[0x1f]), (7, &[0x7f, 0x80])];

// ---------------------------------------------------------------------------
// §4.1: entry size
// ---------------------------------------------------------------------------

/// Worked entry-size examples, mostly from RFC 7541 Appendix C traces.
pub const ENTRY_SIZES: [(&str, &str, u32); 8] = [
    ("custom-key", "custom-header", 55),
    ("custom-key", "custom-value", 54),
    (":authority", "www.example.com", 57),
    ("cache-control", "no-cache", 53),
    (":status", "302", 42),
    ("location", "https://www.example.com", 63),
    ("date", "Mon, 21 Oct 2013 20:13:21 GMT", 65),
    ("", "", 32),
];

// ---------------------------------------------------------------------------
// §4.3 / §4.4: eviction scenarios
// ---------------------------------------------------------------------------

/// One step applied to a dynamic table under test.
pub enum TableOp {
    /// Apply a §6.3/§4.3 maximum-size update.
    SetMaxSize(u32),
    /// Insert a field (§4.4 eviction-on-add rules apply).
    Insert(&'static str, &'static str),
}

/// A scripted dynamic-table scenario with the state RFC 7541 demands
/// afterwards.
pub struct EvictionScenario {
    /// What the scenario pins.
    pub name: &'static str,
    /// Initial maximum table size.
    pub initial_max: u32,
    /// Steps, applied in order.
    pub ops: &'static [TableOp],
    /// Entry count afterwards.
    pub expect_len: usize,
    /// Occupancy in octets afterwards.
    pub expect_size: u32,
    /// Total entries evicted along the way.
    pub expect_evictions: u64,
    /// Name of the newest entry (absolute index 62), if any must exist.
    pub expect_head: Option<&'static str>,
}

/// §4.3/§4.4 scenarios. Entry sizes: one-octet name + one-octet value
/// = 34; `"aa"`/`"bbbb"` = 38.
pub const EVICTION_SCENARIOS: [EvictionScenario; 7] = [
    EvictionScenario {
        name: "insert past the budget evicts oldest-first (§4.4)",
        initial_max: 100,
        ops: &[
            TableOp::Insert("a", "1"),
            TableOp::Insert("b", "2"),
            TableOp::Insert("c", "3"),
        ],
        expect_len: 2,
        expect_size: 68,
        expect_evictions: 1,
        expect_head: Some("c"),
    },
    EvictionScenario {
        name: "exact fit is not evicted",
        initial_max: 68,
        ops: &[TableOp::Insert("a", "1"), TableOp::Insert("b", "2")],
        expect_len: 2,
        expect_size: 68,
        expect_evictions: 0,
        expect_head: Some("b"),
    },
    EvictionScenario {
        name: "size update shrink keeps newest entries (§4.3)",
        initial_max: 200,
        ops: &[
            TableOp::Insert("a", "1"),
            TableOp::Insert("b", "2"),
            TableOp::SetMaxSize(40),
        ],
        expect_len: 1,
        expect_size: 34,
        expect_evictions: 1,
        expect_head: Some("b"),
    },
    EvictionScenario {
        name: "size update to zero clears the table (§4.3)",
        initial_max: 4096,
        ops: &[
            TableOp::Insert("a", "1"),
            TableOp::Insert("b", "2"),
            TableOp::SetMaxSize(0),
        ],
        expect_len: 0,
        expect_size: 0,
        expect_evictions: 2,
        expect_head: None,
    },
    EvictionScenario {
        name: "entry wider than the whole table empties it (§4.4)",
        initial_max: 40,
        ops: &[
            TableOp::Insert("a", "1"),
            TableOp::Insert("long-name", "long-value-that-overflows"),
        ],
        expect_len: 0,
        expect_size: 0,
        expect_evictions: 1,
        expect_head: None,
    },
    EvictionScenario {
        name: "growing the budget re-admits without resurrecting",
        initial_max: 34,
        ops: &[
            TableOp::Insert("a", "1"),
            TableOp::Insert("b", "2"),
            TableOp::SetMaxSize(100),
            TableOp::Insert("c", "3"),
        ],
        expect_len: 2,
        expect_size: 68,
        expect_evictions: 1,
        expect_head: Some("c"),
    },
    EvictionScenario {
        name: "zero-budget table admits nothing and clears nothing",
        initial_max: 0,
        ops: &[TableOp::Insert("a", "1")],
        expect_len: 0,
        expect_size: 0,
        expect_evictions: 0,
        expect_head: None,
    },
];

// ---------------------------------------------------------------------------
// §6.3: dynamic table size update, on the wire
// ---------------------------------------------------------------------------

/// Expected decoder reaction to a header block carrying a size update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeUpdateOutcome {
    /// Block decodes; the table maximum afterwards.
    Accepted {
        /// The maximum size the table must report after the block.
        new_max: u32,
    },
    /// Refused: the update arrived after a field in the same block.
    RejectedLate,
    /// Refused: the update exceeds the SETTINGS-fixed ceiling.
    RejectedTooLarge,
}

/// One §6.3 wire scenario: decode `block` with the given protocol
/// ceiling and compare against `outcome`.
pub struct SizeUpdateCase {
    /// What the case pins.
    pub name: &'static str,
    /// The raw header block.
    pub block: &'static [u8],
    /// SETTINGS_HEADER_TABLE_SIZE ceiling in force.
    pub protocol_max: u32,
    /// Required decoder reaction.
    pub outcome: SizeUpdateOutcome,
}

/// §6.3 wire scenarios (`0b001xxxxx` opcode, 5-bit prefix).
pub const SIZE_UPDATE_CASES: [SizeUpdateCase; 5] = [
    SizeUpdateCase {
        name: "update to zero at block start",
        block: &[0x20],
        protocol_max: 4096,
        outcome: SizeUpdateOutcome::Accepted { new_max: 0 },
    },
    SizeUpdateCase {
        name: "update to the ceiling itself",
        block: &[0x3f, 0xe1, 0x1f],
        protocol_max: 4096,
        outcome: SizeUpdateOutcome::Accepted { new_max: 4096 },
    },
    SizeUpdateCase {
        name: "update followed by an indexed field",
        block: &[0x3f, 0x09, 0x82],
        protocol_max: 4096,
        outcome: SizeUpdateOutcome::Accepted { new_max: 40 },
    },
    SizeUpdateCase {
        name: "update after a field is an error (§4.2)",
        block: &[0x82, 0x20],
        protocol_max: 4096,
        outcome: SizeUpdateOutcome::RejectedLate,
    },
    SizeUpdateCase {
        name: "update above the SETTINGS ceiling is an error",
        block: &[0x3f, 0xe2, 0x1f],
        protocol_max: 4096,
        outcome: SizeUpdateOutcome::RejectedTooLarge,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_shape() {
        assert_eq!(STATIC_TABLE.len(), 61);
        // Well-known anchors of Appendix A.
        assert_eq!(STATIC_TABLE[0], (":authority", ""));
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[18], ("accept", ""));
        assert_eq!(STATIC_TABLE[60], ("www-authenticate", ""));
        // Names are lowercase and non-empty throughout.
        for (name, _) in STATIC_TABLE {
            assert!(!name.is_empty());
            assert_eq!(name, name.to_ascii_lowercase());
        }
    }

    #[test]
    fn huffman_lengths_are_a_complete_prefix_code() {
        assert_eq!(HUFFMAN_LENGTHS.len(), 257);
        assert!(HUFFMAN_LENGTHS.iter().all(|&l| (5..=30).contains(&l)));
        assert_eq!(kraft_sum_q30(), 1 << 30, "kraft equality");
        assert!(prefix_violations().is_empty());
    }

    #[test]
    fn canonical_reconstruction_spot_checks() {
        let codes = canonical_codes();
        // RFC 7541 Appendix B anchors: '0' is the very first code
        // (00000), 'a' is 00011, EOS is 30 ones.
        assert_eq!(codes[b'0' as usize], (0x0, 5));
        assert_eq!(codes[b'1' as usize], (0x1, 5));
        assert_eq!(codes[b'a' as usize], (0x3, 5));
        assert_eq!(codes[b' ' as usize], (0x14, 6));
        assert_eq!(codes[HUFFMAN_EOS], (0x3fff_ffff, 30));
    }

    #[test]
    fn integer_boundaries_cover_every_hpack_prefix_width() {
        for width in [1u8, 5, 6, 7, 8] {
            assert!(
                INTEGER_BOUNDARIES.iter().any(|b| b.prefix_bits == width),
                "no boundary row for prefix width {width}"
            );
        }
        // Continuation octets are little-endian 7-bit groups: every
        // non-final continuation octet has the high bit set.
        for b in &INTEGER_BOUNDARIES {
            for (i, &octet) in b.encoded.iter().enumerate().skip(1) {
                let last = i == b.encoded.len() - 1;
                assert_eq!(octet & 0x80 != 0, !last, "{}", b.note);
            }
        }
    }
}
