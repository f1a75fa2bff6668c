//! RFC 7541 conformance: the reference tables of `rfc7541` asserted
//! against `h2hpack`. The static table is
//! byte-compared, every canonically reconstructed Huffman codeword is
//! decoded through `h2hpack::huffman`, the integer boundaries round-trip
//! through `h2hpack::integer` in both directions, the eviction scenarios
//! drive an actual `DynamicTable`, and the §6.3 wire cases run through a
//! real `Decoder`.

mod rfc7541;

use h2hpack::{huffman, integer, Decoder, DynamicTable, Header, HpackDecodeError, STATIC_TABLE};
use rfc7541::{
    self as spec, canonical_codes, SizeUpdateOutcome, TableOp, ENTRY_SIZES, EVICTION_SCENARIOS,
    HUFFMAN_EOS, INTEGER_BOUNDARIES, INTEGER_OVERFLOWS, INTEGER_TRUNCATIONS, SIZE_UPDATE_CASES,
};

#[test]
fn static_table_matches_appendix_a() {
    assert_eq!(STATIC_TABLE.len(), spec::STATIC_TABLE.len());
    for (i, &(name, value)) in spec::STATIC_TABLE.iter().enumerate() {
        let index = i + 1;
        assert_eq!(
            STATIC_TABLE.get(i).copied(),
            Some((name, value)),
            "Appendix A index {index}"
        );
        assert_eq!(
            h2hpack::static_entry(index),
            Some(Header::new(name, value)),
            "static_entry({index})"
        );
    }
}

/// Encodes a single codeword, padded to a byte boundary with EOS-prefix
/// ones, exactly as RFC 7541 §5.2 requires of an encoder.
fn codeword_bytes(code: u32, len: u8) -> Vec<u8> {
    let pad = (8 - u32::from(len) % 8) % 8;
    let acc = (u64::from(code) << pad) | ((1u64 << pad) - 1);
    let total_bits = u32::from(len) + pad;
    let mut out = Vec::with_capacity((total_bits / 8) as usize);
    let mut remaining = total_bits;
    while remaining >= 8 {
        remaining -= 8;
        out.push((acc >> remaining) as u8);
    }
    out
}

#[test]
fn codeword_bytes_pads_with_ones() {
    // 'a' = 00011 (5 bits) + 3 ones = 0b0001_1111.
    assert_eq!(codeword_bytes(0x3, 5), [0b0001_1111]);
    // 8-bit codes need no padding.
    assert_eq!(codeword_bytes(0xf8, 8), [0xf8]);
}

#[test]
fn huffman_codes_are_canonical_and_every_codeword_decodes() {
    let spec_codes = canonical_codes();
    assert_eq!(huffman::CODES.len(), spec_codes.len());
    for (sym, &(code, len)) in spec_codes.iter().enumerate() {
        assert_eq!(
            huffman::CODES.get(sym).copied(),
            Some((code, len)),
            "Appendix B symbol {sym}: canonical reconstruction vs h2hpack::CODES"
        );
        let decoded = huffman::decode(&codeword_bytes(code, len));
        if sym == HUFFMAN_EOS {
            assert_eq!(
                decoded,
                Err(HpackDecodeError::InvalidHuffman),
                "the EOS codeword in-stream must be refused"
            );
        } else {
            assert_eq!(decoded, Ok(vec![sym as u8]), "codeword for symbol {sym}");
        }
    }
}

#[test]
fn integers_round_trip_at_every_boundary_and_refuse_overflow_and_truncation() {
    for b in &INTEGER_BOUNDARIES {
        let mut encoded = Vec::new();
        integer::encode(b.value, b.prefix_bits, 0, &mut encoded);
        assert_eq!(encoded, b.encoded, "encode: {}", b.note);
        assert_eq!(
            integer::decode(b.encoded, b.prefix_bits),
            Ok((b.value, b.encoded.len())),
            "decode: {}",
            b.note
        );
    }
    for &(prefix, bytes) in &INTEGER_OVERFLOWS {
        assert_eq!(
            integer::decode(bytes, prefix),
            Err(HpackDecodeError::IntegerOverflow),
            "{bytes:02x?} (prefix {prefix}) exceeds u32"
        );
    }
    for &(prefix, bytes) in &INTEGER_TRUNCATIONS {
        assert_eq!(
            integer::decode(bytes, prefix),
            Err(HpackDecodeError::Truncated),
            "{bytes:02x?} (prefix {prefix}) ends mid-continuation"
        );
    }
}

#[test]
fn entry_sizes_match_hpack_size() {
    for &(name, value, size) in &ENTRY_SIZES {
        assert_eq!(
            Header::new(name, value).hpack_size(),
            size,
            "§4.1 size of ({name:?}, {value:?})"
        );
    }
}

#[test]
fn eviction_scenarios_match_dynamic_table() {
    for scenario in &EVICTION_SCENARIOS {
        let mut table = DynamicTable::new(scenario.initial_max);
        for op in scenario.ops {
            match *op {
                TableOp::SetMaxSize(max) => table.set_max_size(max),
                TableOp::Insert(name, value) => table.insert(name, value),
            }
        }
        // (len, size, evictions, name of the newest entry)
        assert_eq!(
            (
                table.len(),
                table.size(),
                table.evictions(),
                table.get(62).map(|(name, _)| name),
            ),
            (
                scenario.expect_len,
                scenario.expect_size,
                scenario.expect_evictions,
                scenario.expect_head,
            ),
            "scenario `{}`",
            scenario.name
        );
    }
}

#[test]
fn size_update_cases_match_the_decoder() {
    for case in &SIZE_UPDATE_CASES {
        let mut dec = Decoder::with_table_size(case.protocol_max);
        let result = dec.decode_block(case.block);
        let outcome = match result {
            Ok(_) => Some(SizeUpdateOutcome::Accepted {
                new_max: dec.table().max_size(),
            }),
            Err(HpackDecodeError::LateTableSizeUpdate) => Some(SizeUpdateOutcome::RejectedLate),
            Err(HpackDecodeError::TableSizeUpdateTooLarge { .. }) => {
                Some(SizeUpdateOutcome::RejectedTooLarge)
            }
            Err(_) => None,
        };
        assert_eq!(
            outcome,
            Some(case.outcome),
            "§6.3 case `{}`: decoder gave {result:?}",
            case.name
        );
    }
}
