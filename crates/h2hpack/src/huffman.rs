//! Huffman coding for HPACK string literals (RFC 7541 §5.2, Appendix B).

#![allow(
    clippy::indexing_slicing,
    reason = "table-driven decode; indices bounded by the Appendix B table arity"
)]

use std::sync::OnceLock;

use crate::error::HpackDecodeError;

/// `(code, bit-length)` for each of the 256 octets plus EOS, exactly as
/// listed in RFC 7541 Appendix B.
pub const CODES: [(u32, u8); 257] = [
    (0x1ff8, 13),
    (0x7fffd8, 23),
    (0xfffffe2, 28),
    (0xfffffe3, 28),
    (0xfffffe4, 28),
    (0xfffffe5, 28),
    (0xfffffe6, 28),
    (0xfffffe7, 28),
    (0xfffffe8, 28),
    (0xffffea, 24),
    (0x3ffffffc, 30),
    (0xfffffe9, 28),
    (0xfffffea, 28),
    (0x3ffffffd, 30),
    (0xfffffeb, 28),
    (0xfffffec, 28),
    (0xfffffed, 28),
    (0xfffffee, 28),
    (0xfffffef, 28),
    (0xffffff0, 28),
    (0xffffff1, 28),
    (0xffffff2, 28),
    (0x3ffffffe, 30),
    (0xffffff3, 28),
    (0xffffff4, 28),
    (0xffffff5, 28),
    (0xffffff6, 28),
    (0xffffff7, 28),
    (0xffffff8, 28),
    (0xffffff9, 28),
    (0xffffffa, 28),
    (0xffffffb, 28),
    (0x14, 6),
    (0x3f8, 10),
    (0x3f9, 10),
    (0xffa, 12),
    (0x1ff9, 13),
    (0x15, 6),
    (0xf8, 8),
    (0x7fa, 11),
    (0x3fa, 10),
    (0x3fb, 10),
    (0xf9, 8),
    (0x7fb, 11),
    (0xfa, 8),
    (0x16, 6),
    (0x17, 6),
    (0x18, 6),
    (0x0, 5),
    (0x1, 5),
    (0x2, 5),
    (0x19, 6),
    (0x1a, 6),
    (0x1b, 6),
    (0x1c, 6),
    (0x1d, 6),
    (0x1e, 6),
    (0x1f, 6),
    (0x5c, 7),
    (0xfb, 8),
    (0x7ffc, 15),
    (0x20, 6),
    (0xffb, 12),
    (0x3fc, 10),
    (0x1ffa, 13),
    (0x21, 6),
    (0x5d, 7),
    (0x5e, 7),
    (0x5f, 7),
    (0x60, 7),
    (0x61, 7),
    (0x62, 7),
    (0x63, 7),
    (0x64, 7),
    (0x65, 7),
    (0x66, 7),
    (0x67, 7),
    (0x68, 7),
    (0x69, 7),
    (0x6a, 7),
    (0x6b, 7),
    (0x6c, 7),
    (0x6d, 7),
    (0x6e, 7),
    (0x6f, 7),
    (0x70, 7),
    (0x71, 7),
    (0x72, 7),
    (0xfc, 8),
    (0x73, 7),
    (0xfd, 8),
    (0x1ffb, 13),
    (0x7fff0, 19),
    (0x1ffc, 13),
    (0x3ffc, 14),
    (0x22, 6),
    (0x7ffd, 15),
    (0x3, 5),
    (0x23, 6),
    (0x4, 5),
    (0x24, 6),
    (0x5, 5),
    (0x25, 6),
    (0x26, 6),
    (0x27, 6),
    (0x6, 5),
    (0x74, 7),
    (0x75, 7),
    (0x28, 6),
    (0x29, 6),
    (0x2a, 6),
    (0x7, 5),
    (0x2b, 6),
    (0x76, 7),
    (0x2c, 6),
    (0x8, 5),
    (0x9, 5),
    (0x2d, 6),
    (0x77, 7),
    (0x78, 7),
    (0x79, 7),
    (0x7a, 7),
    (0x7b, 7),
    (0x7ffe, 15),
    (0x7fc, 11),
    (0x3ffd, 14),
    (0x1ffd, 13),
    (0xffffffc, 28),
    (0xfffe6, 20),
    (0x3fffd2, 22),
    (0xfffe7, 20),
    (0xfffe8, 20),
    (0x3fffd3, 22),
    (0x3fffd4, 22),
    (0x3fffd5, 22),
    (0x7fffd9, 23),
    (0x3fffd6, 22),
    (0x7fffda, 23),
    (0x7fffdb, 23),
    (0x7fffdc, 23),
    (0x7fffdd, 23),
    (0x7fffde, 23),
    (0xffffeb, 24),
    (0x7fffdf, 23),
    (0xffffec, 24),
    (0xffffed, 24),
    (0x3fffd7, 22),
    (0x7fffe0, 23),
    (0xffffee, 24),
    (0x7fffe1, 23),
    (0x7fffe2, 23),
    (0x7fffe3, 23),
    (0x7fffe4, 23),
    (0x1fffdc, 21),
    (0x3fffd8, 22),
    (0x7fffe5, 23),
    (0x3fffd9, 22),
    (0x7fffe6, 23),
    (0x7fffe7, 23),
    (0xffffef, 24),
    (0x3fffda, 22),
    (0x1fffdd, 21),
    (0xfffe9, 20),
    (0x3fffdb, 22),
    (0x3fffdc, 22),
    (0x7fffe8, 23),
    (0x7fffe9, 23),
    (0x1fffde, 21),
    (0x7fffea, 23),
    (0x3fffdd, 22),
    (0x3fffde, 22),
    (0xfffff0, 24),
    (0x1fffdf, 21),
    (0x3fffdf, 22),
    (0x7fffeb, 23),
    (0x7fffec, 23),
    (0x1fffe0, 21),
    (0x1fffe1, 21),
    (0x3fffe0, 22),
    (0x1fffe2, 21),
    (0x7fffed, 23),
    (0x3fffe1, 22),
    (0x7fffee, 23),
    (0x7fffef, 23),
    (0xfffea, 20),
    (0x3fffe2, 22),
    (0x3fffe3, 22),
    (0x3fffe4, 22),
    (0x7ffff0, 23),
    (0x3fffe5, 22),
    (0x3fffe6, 22),
    (0x7ffff1, 23),
    (0x3ffffe0, 26),
    (0x3ffffe1, 26),
    (0xfffeb, 20),
    (0x7fff1, 19),
    (0x3fffe7, 22),
    (0x7ffff2, 23),
    (0x3fffe8, 22),
    (0x1ffffec, 25),
    (0x3ffffe2, 26),
    (0x3ffffe3, 26),
    (0x3ffffe4, 26),
    (0x7ffffde, 27),
    (0x7ffffdf, 27),
    (0x3ffffe5, 26),
    (0xfffff1, 24),
    (0x1ffffed, 25),
    (0x7fff2, 19),
    (0x1fffe3, 21),
    (0x3ffffe6, 26),
    (0x7ffffe0, 27),
    (0x7ffffe1, 27),
    (0x3ffffe7, 26),
    (0x7ffffe2, 27),
    (0xfffff2, 24),
    (0x1fffe4, 21),
    (0x1fffe5, 21),
    (0x3ffffe8, 26),
    (0x3ffffe9, 26),
    (0xffffffd, 28),
    (0x7ffffe3, 27),
    (0x7ffffe4, 27),
    (0x7ffffe5, 27),
    (0xfffec, 20),
    (0xfffff3, 24),
    (0xfffed, 20),
    (0x1fffe6, 21),
    (0x3fffe9, 22),
    (0x1fffe7, 21),
    (0x1fffe8, 21),
    (0x7ffff3, 23),
    (0x3fffea, 22),
    (0x3fffeb, 22),
    (0x1ffffee, 25),
    (0x1ffffef, 25),
    (0xfffff4, 24),
    (0xfffff5, 24),
    (0x3ffffea, 26),
    (0x7ffff4, 23),
    (0x3ffffeb, 26),
    (0x7ffffe6, 27),
    (0x3ffffec, 26),
    (0x3ffffed, 26),
    (0x7ffffe7, 27),
    (0x7ffffe8, 27),
    (0x7ffffe9, 27),
    (0x7ffffea, 27),
    (0x7ffffeb, 27),
    (0xffffffe, 28),
    (0x7ffffec, 27),
    (0x7ffffed, 27),
    (0x7ffffee, 27),
    (0x7ffffef, 27),
    (0x7fffff0, 27),
    (0x3ffffee, 26),
    (0x3fffffff, 30),
];

/// Index of the EOS symbol in [`CODES`].
pub const EOS: usize = 256;

/// Returns the number of octets `input` occupies once Huffman-coded.
pub fn encoded_len(input: &[u8]) -> usize {
    let bits: u64 = input.iter().map(|&b| u64::from(CODES[b as usize].1)).sum();
    (bits as usize).div_ceil(8)
}

/// Huffman-encodes `input`, padding the final octet with the EOS prefix
/// (all ones) per RFC 7541 §5.2.
pub fn encode(input: &[u8], out: &mut Vec<u8>) {
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &byte in input {
        let (code, len) = CODES[byte as usize];
        acc = (acc << len) | u64::from(code);
        acc_bits += u32::from(len);
        while acc_bits >= 8 {
            acc_bits -= 8;
            out.push((acc >> acc_bits) as u8);
        }
    }
    if acc_bits > 0 {
        // Pad with the most significant bits of EOS (all ones).
        let pad = 8 - acc_bits;
        out.push(((acc << pad) as u8) | ((1u16 << pad) - 1) as u8);
    }
}

/// One step of the decoder: what reading one 4-bit nibble does from one
/// state. States 0–255 are the internal nodes of the code's binary trie,
/// state 0 (the root) being "at a symbol boundary" — the code is complete,
/// so the trie has exactly 256 of them; state 256 is "EOS was read", which
/// no input leaves and no input may end in.
#[derive(Clone, Copy)]
struct Step {
    /// The state after the nibble, times 16: where its row of steps
    /// starts in the table.
    next: u16,
    /// The symbol the nibble completed (when `flags & EMIT`). Codes are at
    /// least 5 bits long, so a nibble completes at most one.
    symbol: u8,
    flags: u8,
}

/// The nibble completed `Step::symbol`.
const EMIT: u8 = 1;
/// The input may end after this step: the bits since the last symbol are
/// at most seven ones, a strict prefix of EOS (RFC 7541 §5.2).
const ACCEPT: u8 = 2;

/// The state EOS leads to.
const FAILED: usize = 256;

/// Every state's 16 steps, one row per state.
type DecodeTable = [Step; (FAILED + 1) * 16];

/// The nibble table, built once from [`CODES`]: first the binary trie
/// (each internal node's children, a node index or a symbol), then every
/// state's walk over each of the 16 nibbles.
fn decode_table() -> &'static DecodeTable {
    static TABLE: OnceLock<Box<DecodeTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        #[derive(Clone, Copy)]
        enum Child {
            Missing,
            Node(usize),
            Symbol(usize),
        }
        let mut trie = vec![[Child::Missing; 2]];
        for (symbol, &(code, len)) in CODES.iter().enumerate() {
            let mut node = 0;
            for depth in (0..len).rev() {
                let bit = ((code >> depth) & 1) as usize;
                if depth == 0 {
                    trie[node][bit] = Child::Symbol(symbol);
                } else {
                    node = match trie[node][bit] {
                        Child::Node(next) => next,
                        Child::Missing => {
                            trie.push([Child::Missing; 2]);
                            trie[node][bit] = Child::Node(trie.len() - 1);
                            trie.len() - 1
                        }
                        #[expect(
                            clippy::unreachable,
                            reason = "Appendix B is a prefix code; collisions cannot occur"
                        )]
                        Child::Symbol(_) => unreachable!("prefix codes never collide"),
                    };
                }
            }
        }
        assert_eq!(trie.len(), FAILED, "a complete code has 256 internal nodes");
        // The states the input may end in: the root and the first seven
        // nodes down the all-ones path.
        let mut accepting = [false; FAILED + 1];
        let mut node = 0;
        for _ in 0..8 {
            accepting[node] = true;
            if let Child::Node(next) = trie[node][1] {
                node = next;
            }
        }
        let failed = Step {
            next: (FAILED * 16) as u16,
            symbol: 0,
            flags: 0,
        };
        let mut table = Box::new([failed; (FAILED + 1) * 16]);
        for (state, row) in table.chunks_exact_mut(16).take(FAILED).enumerate() {
            for (nibble, step) in row.iter_mut().enumerate() {
                let mut node = state;
                for shift in (0..4).rev() {
                    match trie[node][(nibble >> shift) & 1] {
                        Child::Node(next) => node = next,
                        Child::Symbol(symbol) if symbol != EOS => {
                            step.flags |= EMIT;
                            step.symbol = symbol as u8;
                            node = 0;
                        }
                        Child::Symbol(_) | Child::Missing => {
                            node = FAILED;
                            break;
                        }
                    }
                }
                step.next = (node * 16) as u16;
                if accepting[node] {
                    step.flags |= ACCEPT;
                }
            }
        }
        table
    })
}

/// Decodes a Huffman-coded string.
///
/// # Errors
///
/// See [`decode_into`].
pub fn decode(input: &[u8]) -> Result<Vec<u8>, HpackDecodeError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    decode_into(input, &mut out)?;
    Ok(out)
}

/// Decodes a Huffman-coded string, appending the octets to `out`. Space
/// for the longest possible result (every symbol 5 bits) is reserved up
/// front, so a decode grows `out` at most once.
///
/// # Errors
///
/// Returns [`HpackDecodeError::InvalidHuffman`] when the input contains the
/// EOS symbol, when padding is longer than seven bits, or when padding does
/// not match the most significant bits of EOS (RFC 7541 §5.2). `out` may
/// then hold part of the decoded octets.
pub fn decode_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), HpackDecodeError> {
    let table = decode_table();
    out.reserve(input.len() * 8 / 5);
    // The current state's row; the failed state absorbs the rest of the
    // input, so EOS needs no check of its own.
    let mut row = 0;
    let mut flags = ACCEPT;
    for &byte in input {
        for nibble in [byte >> 4, byte & 0x0f] {
            let step = table[row | usize::from(nibble)];
            if step.flags & EMIT != 0 {
                out.push(step.symbol);
            }
            row = usize::from(step.next);
            flags = step.flags;
        }
    }
    if flags & ACCEPT != 0 {
        Ok(())
    } else {
        Err(HpackDecodeError::InvalidHuffman)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_is_sound() {
        assert_eq!(CODES.len(), 257);
        for &(code, len) in &CODES {
            assert!((5..=30).contains(&len));
            assert!(u64::from(code) < (1u64 << len), "code fits in its length");
        }
        // Kraft equality: a complete prefix code sums to exactly 1.
        let kraft: f64 = CODES
            .iter()
            .map(|&(_, len)| 2f64.powi(-i32::from(len)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft sum {kraft}");
    }

    #[test]
    fn rfc_appendix_c4_examples() {
        // RFC 7541 §C.4.1: "www.example.com".
        let mut out = Vec::new();
        encode(b"www.example.com", &mut out);
        assert_eq!(
            out,
            [0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff]
        );
        // §C.4.2: "no-cache".
        let mut out = Vec::new();
        encode(b"no-cache", &mut out);
        assert_eq!(out, [0xa8, 0xeb, 0x10, 0x64, 0x9c, 0xbf]);
        // §C.6.1: "302".
        let mut out = Vec::new();
        encode(b"302", &mut out);
        assert_eq!(out, [0x64, 0x02]);
        // §C.6.1: "private".
        let mut out = Vec::new();
        encode(b"private", &mut out);
        assert_eq!(out, [0xae, 0xc3, 0x77, 0x1a, 0x4b]);
    }

    #[test]
    fn all_bytes_round_trip() {
        let input: Vec<u8> = (0u8..=255).collect();
        let mut coded = Vec::new();
        encode(&input, &mut coded);
        assert_eq!(decode(&coded).unwrap(), input);
    }

    #[test]
    fn empty_string_round_trips() {
        let mut coded = Vec::new();
        encode(b"", &mut coded);
        assert!(coded.is_empty());
        assert_eq!(decode(&coded).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn encoded_len_matches_encode() {
        for input in [&b""[..], b"a", b"www.example.com", b"\x00\x01\xff"] {
            let mut coded = Vec::new();
            encode(input, &mut coded);
            assert_eq!(coded.len(), encoded_len(input));
        }
    }

    #[test]
    fn eos_in_stream_is_rejected() {
        // 30 bits of ones = EOS followed by 2 padding ones: 0xff 0xff 0xff 0xff.
        assert_eq!(
            decode(&[0xff, 0xff, 0xff, 0xff]),
            Err(HpackDecodeError::InvalidHuffman)
        );
    }

    #[test]
    fn bad_padding_is_rejected() {
        // 'a' = 00011 (5 bits); pad with zeros instead of ones.
        assert_eq!(
            decode(&[0b0001_1000]),
            Err(HpackDecodeError::InvalidHuffman)
        );
    }

    #[test]
    fn overlong_padding_is_rejected() {
        // A full octet of ones after a symbol boundary is 8 bits of padding.
        let mut coded = Vec::new();
        encode(b"0", &mut coded); // '0' = 00000, 5 bits -> 1 byte with 3 pad bits
        coded.push(0xff);
        assert_eq!(decode(&coded), Err(HpackDecodeError::InvalidHuffman));
    }

    #[test]
    fn valid_padding_is_accepted() {
        // 'a' = 00011 + 3 bits of ones padding = 0b00011111.
        assert_eq!(decode(&[0b0001_1111]).unwrap(), b"a");
    }
}
