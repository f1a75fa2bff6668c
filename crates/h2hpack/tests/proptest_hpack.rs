//! Property-based tests for HPACK: the decoder must invert the encoder
//! under every policy, both ends' dynamic tables must keep RFC 7541
//! §4.1's size arithmetic, and the Huffman coder must round-trip
//! arbitrary octet strings.

use h2hpack::encoder::{Encoder, EncoderOptions, IndexingPolicy};
use h2hpack::{
    huffman, integer, static_lookup, Decoder, DynamicTable, Header, HpackDecodeError, STATIC_TABLE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn arb_header() -> impl Strategy<Value = Header> {
    let name = prop_oneof![
        Just(":method".to_string()),
        Just(":path".to_string()),
        Just("content-type".to_string()),
        Just("server".to_string()),
        "[a-z][a-z0-9-]{0,20}",
    ];
    let value = prop_oneof![
        Just("GET".to_string()),
        Just("200".to_string()),
        "[ -~]{0,40}", // printable ASCII
    ];
    (name, value).prop_map(|(n, v)| Header::new(n, v))
}

fn arb_policy() -> impl Strategy<Value = IndexingPolicy> {
    prop_oneof![
        Just(IndexingPolicy::Always),
        Just(IndexingPolicy::Never),
        Just(IndexingPolicy::NeverIndexed),
    ]
}

/// The table's claimed occupancy equals the sum of RFC 7541 §4.1 entry
/// sizes over its live entries — name octets plus value octets plus 32,
/// computed here independently of `Header::hpack_size` — and respects
/// the configured maximum.
fn audit_table(table: &DynamicTable) {
    let mut total = 0u32;
    for i in 0..table.len() {
        let entry = table.get(62 + i);
        assert!(entry.is_some(), "entry {i} of {} missing", table.len());
        if let Some((name, value)) = entry {
            let size = name.len() as u32 + value.len() as u32 + 32;
            assert_eq!(size, Header::new(name, value).hpack_size(), "§4.1 size");
            total += size;
        }
    }
    assert_eq!(total, table.size(), "summed §4.1 sizes vs table.size()");
    assert!(table.size() <= table.max_size());
}

/// `text` in a `String` with `spare` octets of capacity beyond it.
fn with_spare(text: &str, spare: usize) -> String {
    let mut s = String::with_capacity(text.len() + spare);
    s.push_str(text);
    s
}

/// A stale header list a caller hands back for reuse: random length,
/// random contents, spare capacity in the list and in every string.
fn arb_junk_list() -> impl Strategy<Value = Vec<Header>> {
    let field = ("[ -~]{0,30}", "[ -~]{0,30}", 0usize..48);
    (prop::collection::vec(field, 0..16), 0usize..8).prop_map(|(fields, spare)| {
        let mut list = Vec::with_capacity(fields.len() + spare);
        for (name, value, extra) in fields {
            list.push(Header {
                name: with_spare(&name, extra),
                value: with_spare(&value, extra / 2),
            });
        }
        list
    })
}

/// The bit-serial reference decoder: one bit at a time, a symbol
/// whenever the bits since the last one spell a codeword of RFC 7541
/// Appendix B, and at the end at most seven bits of EOS prefix (§5.2).
fn reference_decode(input: &[u8]) -> Result<Vec<u8>, HpackDecodeError> {
    static SYMBOLS: OnceLock<BTreeMap<(u32, u8), usize>> = OnceLock::new();
    let symbols = SYMBOLS.get_or_init(|| {
        (0..huffman::CODES.len())
            .map(|s| (huffman::CODES[s], s))
            .collect()
    });
    let mut out = Vec::new();
    let (mut code, mut len) = (0u32, 0u8);
    for &byte in input {
        for shift in (0..8).rev() {
            code = (code << 1) | u32::from((byte >> shift) & 1);
            len += 1;
            match symbols.get(&(code, len)).copied() {
                Some(huffman::EOS) => return Err(HpackDecodeError::InvalidHuffman),
                Some(symbol) => {
                    out.push(symbol as u8);
                    (code, len) = (0, 0);
                }
                None => {}
            }
        }
    }
    if len > 7 || code != (1 << len) - 1 {
        return Err(HpackDecodeError::InvalidHuffman);
    }
    Ok(out)
}

/// `bits` packed into octets, the last one filled up with `fill`.
fn pack(bits: &[bool], fill: bool) -> Vec<u8> {
    bits.chunks(8)
        .map(|chunk| {
            (0..8).fold(0u8, |byte, i| {
                byte << 1 | u8::from(chunk.get(i).copied().unwrap_or(fill))
            })
        })
        .collect()
}

/// Both decoders give the same octets, or both refuse the input.
fn assert_decoders_agree(input: &[u8]) {
    assert_eq!(
        huffman::decode(input),
        reference_decode(input),
        "input {input:02x?}"
    );
}

/// Every codeword alone, after a symbol, and followed by 0 to 16 bits of
/// EOS prefix, its last octet filled with ones or zeros; and every
/// truncation of each of those.
#[test]
fn huffman_decode_matches_the_bit_serial_reference_on_every_codeword() {
    let bits = |(code, len): (u32, u8)| (0..len).rev().map(move |i| (code >> i) & 1 == 1);
    let mut checked = 0;
    for &codeword in &huffman::CODES {
        for lead in [&[][..], &[huffman::CODES[usize::from(b'a')]]] {
            for padding in 0..=16 {
                let mut stream: Vec<bool> = lead.iter().copied().flat_map(bits).collect();
                stream.extend(bits(codeword));
                stream.extend(std::iter::repeat_n(true, padding));
                for fill in [true, false] {
                    let input = pack(&stream, fill);
                    for end in 0..=input.len() {
                        assert_decoders_agree(&input[..end]);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 257 * 2 * 17 * 2, "{checked} inputs");
    // Whole strings decode to themselves on both sides.
    let mut coded = Vec::new();
    huffman::encode(b"www.example.com", &mut coded);
    assert_eq!(reference_decode(&coded), Ok(b"www.example.com".to_vec()));
    assert_decoders_agree(&coded);
}

/// The static lookup as a scan of all 61 entries: the first exact match,
/// else the first entry with the name.
fn scan_static(name: &str, value: &str) -> Option<(usize, bool)> {
    let index = |found: Option<usize>| found.map(|at| at + 1);
    let exact = index(STATIC_TABLE.iter().position(|&e| e == (name, value)));
    let named = index(STATIC_TABLE.iter().position(|&(n, _)| n == name));
    exact.map(|i| (i, true)).or(named.map(|i| (i, false)))
}

/// The dynamic lookup as a text scan of the table's entries, newest
/// first, read back through `get`.
fn scan_dynamic(table: &DynamicTable, name: &str, value: &str) -> Option<(usize, bool)> {
    let fields: Vec<_> = (62..62 + table.len()).map(|i| table.get(i)).collect();
    let exact = fields.iter().position(|&f| f == Some((name, value)));
    let named = fields
        .iter()
        .position(|f| f.is_some_and(|(n, _)| n == name));
    exact
        .map(|at| (62 + at, true))
        .or(named.map(|at| (62 + at, false)))
}

#[test]
fn static_lookup_equals_a_scan_of_every_static_field() {
    for &(name, value) in &STATIC_TABLE {
        for value in [value, "", "GET", "200", "a foreign value"] {
            assert_eq!(
                static_lookup(name, value),
                scan_static(name, value),
                "{name}: {value}"
            );
        }
    }
}

/// A table operation: insert a field, or apply a size update (which may
/// evict or clear).
#[derive(Debug, Clone)]
enum TableOp {
    Insert(String, String),
    Resize(u32),
}

/// Field text from small alphabets, so that equal names, equal fields
/// and unequal text of equal length all recur, with some text longer
/// than one eight-octet fingerprint word.
fn arb_field() -> impl Strategy<Value = (String, String)> {
    let name = prop_oneof![3 => "[ab]{1,3}", 1 => "[ab]{7,10}"];
    let value = prop_oneof![3 => "[xy]{0,3}", 1 => "[xy]{8,17}"];
    (name, value)
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        6 => arb_field().prop_map(|(n, v)| TableOp::Insert(n, v)),
        1 => (0u32..400).prop_map(TableOp::Resize),
    ]
}

proptest! {
    /// The static lookup's `match` agrees with a scan for names in and
    /// out of the table, with values in and out of it.
    #[test]
    fn static_lookup_equals_a_scan_for_any_name(
        name in prop_oneof![
            Just(":method".to_string()),
            Just(":status".to_string()),
            Just("accept".to_string()),
            "[a-z:-]{0,12}",
        ],
        value in prop_oneof![Just("GET".to_string()), Just("200".to_string()), "[ -~]{0,8}"],
    ) {
        prop_assert_eq!(static_lookup(&name, &value), scan_static(&name, &value));
    }

    /// After any sequence of inserts, size updates and evictions, the
    /// fingerprinted lookup answers what a text scan answers: for every
    /// resident field, for its name with a foreign value, and for a
    /// field that may never have been inserted.
    #[test]
    fn dynamic_lookup_equals_a_scan(
        ops in prop::collection::vec(arb_table_op(), 1..60),
        probes in prop::collection::vec(arb_field(), 1..8),
    ) {
        let mut table = DynamicTable::new(300);
        for op in &ops {
            match op {
                TableOp::Insert(name, value) => table.insert(name, value),
                TableOp::Resize(max) => table.set_max_size(*max),
            }
            let resident: Vec<(String, String)> = (62..62 + table.len())
                .filter_map(|i| table.get(i))
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect();
            for (name, value) in resident.iter().chain(&probes) {
                for value in [value.as_str(), "zz"] {
                    prop_assert_eq!(
                        table.lookup(name, value),
                        scan_dynamic(&table, name, value)
                    );
                }
            }
        }
    }

    /// Decoding in place into one reused list — whatever it held — gives
    /// exactly what a fresh decode gives, block after block, and leaves
    /// the dynamic table in the same state; a corrupted block fails (or
    /// succeeds) the same way on both paths.
    #[test]
    fn decode_into_a_reused_list_matches_a_fresh_decode(
        blocks in prop::collection::vec(prop::collection::vec(arb_header(), 0..12), 1..5),
        policy in arb_policy(),
        use_huffman in any::<bool>(),
        table_size in prop_oneof![Just(0u32), Just(96), Just(4096)],
        junk in arb_junk_list(),
        corruption in (any::<prop::sample::Index>(), 1u8..=255),
    ) {
        let mut enc = Encoder::with_options(EncoderOptions {
            indexing: policy,
            use_huffman,
            max_table_size: table_size,
        });
        let mut fresh = Decoder::with_table_size(table_size);
        let mut reused = Decoder::with_table_size(table_size);
        let mut out = junk;
        for headers in &blocks {
            let block = enc.encode_block(headers);
            let want = fresh.decode_block(&block).expect("well-formed block");
            reused
                .decode_block_into(&block, &mut out)
                .expect("well-formed block");
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(reused.table().size(), fresh.table().size());
            prop_assert_eq!(reused.table().len(), fresh.table().len());
            prop_assert_eq!(reused.table().evictions(), fresh.table().evictions());
        }
        let (at, flip) = corruption;
        let mut block = enc.encode_block(&blocks[0]);
        if block.is_empty() {
            block.push(flip);
        } else {
            let i = at.index(block.len());
            block[i] ^= flip;
        }
        match fresh.decode_block(&block) {
            Ok(want) => {
                prop_assert_eq!(reused.decode_block_into(&block, &mut out), Ok(()));
                prop_assert_eq!(&out, &want);
            }
            Err(e) => prop_assert_eq!(reused.decode_block_into(&block, &mut out), Err(e)),
        }
    }

    /// `huffman::decode_into` appends after whatever its output holds.
    #[test]
    fn huffman_decode_into_appends(
        prefix in prop::collection::vec(any::<u8>(), 0..16),
        data in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let mut coded = Vec::new();
        huffman::encode(&data, &mut coded);
        let mut out = prefix.clone();
        huffman::decode_into(&coded, &mut out).expect("valid");
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &data[..]);
    }

    /// Encoder → decoder is the identity on header lists, across multiple
    /// blocks sharing one connection context; after every block both
    /// ends' dynamic tables agree with each other and with §4.1.
    #[test]
    fn hpack_round_trips(
        blocks in prop::collection::vec(prop::collection::vec(arb_header(), 0..12), 1..5),
        policy in arb_policy(),
        use_huffman in any::<bool>(),
        table_size in prop_oneof![Just(0u32), Just(64), Just(4096), Just(65536)],
    ) {
        let mut enc = Encoder::with_options(EncoderOptions {
            indexing: policy,
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

    /// Huffman coding round-trips arbitrary bytes.
    #[test]
    fn huffman_round_trips(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut coded = Vec::new();
        huffman::encode(&data, &mut coded);
        prop_assert_eq!(coded.len(), huffman::encoded_len(&data));
        prop_assert_eq!(huffman::decode(&coded).expect("valid"), data);
    }

    /// On arbitrary octets the table decoder and the bit-serial reference
    /// agree: the same octets, or both `InvalidHuffman`.
    #[test]
    fn huffman_decode_matches_the_bit_serial_reference_on_noise(
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(huffman::decode(&noise), reference_decode(&noise));
    }

    /// Huffman decoding of arbitrary noise never panics.
    #[test]
    fn huffman_decode_never_panics(noise in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = huffman::decode(&noise);
    }

    /// Prefix integers round-trip over the full u32 range and all prefixes.
    #[test]
    fn integers_round_trip(value in any::<u32>(), prefix in 1u8..=8) {
        let mut out = Vec::new();
        integer::encode(u64::from(value), prefix, 0, &mut out);
        let (decoded, used) = integer::decode(&out, prefix).expect("decodes");
        prop_assert_eq!(decoded, u64::from(value));
        prop_assert_eq!(used, out.len());
    }

    /// Decoding arbitrary noise never panics (errors are fine).
    #[test]
    fn decoder_never_panics(noise in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut dec = Decoder::new();
        let _ = dec.decode_block(&noise);
    }

    /// The dynamic table never exceeds its budget: an entry larger than
    /// the whole table empties it instead (§4.4).
    #[test]
    fn table_size_respects_budget(
        headers in prop::collection::vec(arb_header(), 0..64),
        budget in 0u32..512,
    ) {
        let mut enc = Encoder::with_options(EncoderOptions {
            max_table_size: budget,
            ..EncoderOptions::default()
        });
        for h in &headers {
            let _ = enc.encode_block(std::slice::from_ref(h));
            prop_assert!(enc.table().size() <= budget);
            audit_table(enc.table());
        }
    }
}
