//! Property tests for Layer 3: random header lists run through the live
//! `h2hpack` encoder → decoder while the RFC 7541 §4.1 size arithmetic
//! of [`h2check::spec::hpack`] audits the dynamic-table accounting on
//! both sides after every block.

use h2check::spec::hpack::ENTRY_OVERHEAD;
use h2hpack::encoder::{Encoder, EncoderOptions, IndexingPolicy};
use h2hpack::{Decoder, DynamicTable, Header};
use proptest::prelude::*;

/// §4.1: the size of an entry is the octet length of its name plus the
/// octet length of its value plus 32 — computed here from the spec-side
/// constant, independently of `Header::hpack_size`.
fn spec_size(h: &Header) -> u32 {
    h.name.len() as u32 + h.value.len() as u32 + ENTRY_OVERHEAD
}

/// The table's claimed occupancy must equal the §4.1 sum over its live
/// entries and respect the configured maximum.
fn audit_table(table: &DynamicTable) {
    let mut total = 0u32;
    for i in 0..table.len() {
        let entry = table.get(62 + i);
        assert!(entry.is_some(), "entry {i} of {} missing", table.len());
        if let Some((name, value)) = entry {
            let h = Header::new(name, value);
            assert_eq!(spec_size(&h), h.hpack_size(), "spec vs impl size");
            total += spec_size(&h);
        }
    }
    assert_eq!(total, table.size(), "summed §4.1 sizes vs table.size()");
    assert!(table.size() <= table.max_size());
}

fn arb_header() -> impl Strategy<Value = Header> {
    let name = prop_oneof![
        Just(":method".to_string()),
        Just("content-type".to_string()),
        Just("x-request-id".to_string()),
        "[a-z][a-z0-9-]{0,24}",
    ];
    let value = prop_oneof![Just("GET".to_string()), "[ -~]{0,48}"];
    (name, value).prop_map(|(n, v)| Header::new(n, v))
}

proptest! {
    /// Random header lists round-trip, and after every block the
    /// encoder's and decoder's dynamic tables agree with each other and
    /// with the spec-side §4.1 arithmetic.
    #[test]
    fn size_accounting_agrees_under_round_trip(
        blocks in prop::collection::vec(prop::collection::vec(arb_header(), 0..10), 1..6),
        use_huffman in any::<bool>(),
        table_size in prop_oneof![Just(0u32), Just(64), Just(256), Just(4096)],
    ) {
        let mut enc = Encoder::with_options(EncoderOptions {
            indexing: IndexingPolicy::Always,
            use_huffman,
            max_table_size: table_size,
        });
        let mut dec = Decoder::with_table_size(table_size);
        for headers in &blocks {
            let block = enc.encode_block(headers);
            let decoded = dec.decode_block(&block).expect("well-formed block");
            prop_assert_eq!(&decoded, headers);
            audit_table(enc.table());
            audit_table(dec.table());
            prop_assert_eq!(enc.table().len(), dec.table().len());
            prop_assert_eq!(enc.table().size(), dec.table().size());
        }
    }

    /// An entry alone can never occupy more than the table allows; an
    /// insert that would is an eviction-to-empty per §4.4, so occupancy
    /// stays bounded even for oversized entries.
    #[test]
    fn oversized_entries_clear_rather_than_overflow(
        name in "[a-z]{1,8}",
        value in "[ -~]{0,300}",
        max in prop_oneof![Just(0u32), Just(40), Just(64), Just(128)],
    ) {
        let mut table = DynamicTable::new(max);
        table.insert(&name, &value);
        prop_assert!(table.size() <= table.max_size());
        audit_table(&table);
    }
}
