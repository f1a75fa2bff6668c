//! HPACK decoder.

#![allow(
    clippy::indexing_slicing,
    reason = "wire decode hot path; every index follows an explicit length check"
)]

use crate::error::HpackDecodeError;
use crate::huffman;
use crate::integer;
use crate::table::{DynamicTable, Header, TableScratch, STATIC_TABLE, STATIC_TABLE_LEN};

/// A stateful HPACK decoder for one direction of one connection.
#[derive(Debug, Clone)]
pub struct Decoder {
    table: DynamicTable,
}

impl Default for Decoder {
    fn default() -> Decoder {
        Decoder::new()
    }
}

impl Decoder {
    /// Creates a decoder with the protocol-default table size (4,096).
    pub fn new() -> Decoder {
        Decoder::with_table_size(crate::DEFAULT_TABLE_SIZE)
    }

    /// Creates a decoder whose dynamic table is capped at `max_size`
    /// octets (the value this endpoint announced in
    /// `SETTINGS_HEADER_TABLE_SIZE`).
    pub fn with_table_size(max_size: u32) -> Decoder {
        Decoder::new_in(max_size, TableScratch::default())
    }

    /// [`Decoder::with_table_size`] in the table storage another decoder
    /// or encoder left behind.
    pub fn new_in(max_size: u32, scratch: TableScratch) -> Decoder {
        Decoder {
            table: DynamicTable::new_in(max_size, scratch),
        }
    }

    /// Empties the dynamic table and hands back its storage for
    /// [`Decoder::new_in`].
    pub fn take_scratch(&mut self) -> TableScratch {
        self.table.take_scratch()
    }

    /// Read-only view of the dynamic table.
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Updates the SETTINGS-level table ceiling.
    pub fn set_protocol_max_table_size(&mut self, max: u32) {
        self.table.set_protocol_max_size(max);
    }

    /// Decodes one complete header block into a fresh header list.
    ///
    /// # Errors
    ///
    /// See [`Decoder::decode_block_into`].
    pub fn decode_block(&mut self, buf: &[u8]) -> Result<Vec<Header>, HpackDecodeError> {
        let mut headers = Vec::new();
        self.decode_block_into(buf, &mut headers)?;
        Ok(headers)
    }

    /// Decodes one complete header block into `out`, overwriting its
    /// entries in place so every `String` keeps its capacity: a list
    /// reused from the previous block of a connection costs no
    /// allocation for fields that fit. `out` grows when the block carries
    /// more fields and is truncated when it carries fewer.
    ///
    /// # Errors
    ///
    /// Any [`HpackDecodeError`]; per RFC 7541 §2.2 a failure leaves the
    /// compression context undefined, so callers must treat it as a
    /// connection-level `COMPRESSION_ERROR`. `out`'s contents are then
    /// unspecified.
    pub fn decode_block_into(
        &mut self,
        mut buf: &[u8],
        out: &mut Vec<Header>,
    ) -> Result<(), HpackDecodeError> {
        let mut fields = 0;
        while let Some(&first) = buf.first() {
            if first & 0b1000_0000 != 0 {
                // Indexed header field.
                let (index, used) = integer::decode(buf, 7)?;
                buf = &buf[used..];
                let (name, value) = self.entry(index)?;
                next_slot(out, &mut fields).set(name, value);
            } else if first & 0b0100_0000 != 0 {
                // Literal with incremental indexing.
                let slot = next_slot(out, &mut fields);
                buf = &buf[self.literal_into(buf, 6, slot)?..];
                self.table.insert(&slot.name, &slot.value);
            } else if first & 0b0010_0000 != 0 {
                // Dynamic table size update.
                if fields > 0 {
                    return Err(HpackDecodeError::LateTableSizeUpdate);
                }
                let (size, used) = integer::decode(buf, 5)?;
                buf = &buf[used..];
                let max = self.table.protocol_max_size();
                if size > u64::from(max) {
                    return Err(HpackDecodeError::TableSizeUpdateTooLarge {
                        requested: size as u32,
                        max,
                    });
                }
                self.table.set_max_size(size as u32);
            } else {
                // Literal without indexing (0000) or never indexed (0001).
                let slot = next_slot(out, &mut fields);
                buf = &buf[self.literal_into(buf, 4, slot)?..];
            }
        }
        out.truncate(fields);
        Ok(())
    }

    /// The `(name, value)` at an absolute HPACK index, borrowed from the
    /// static or dynamic table.
    fn entry(&self, index: u64) -> Result<(&str, &str), HpackDecodeError> {
        let idx = index as usize;
        let found = if idx <= STATIC_TABLE_LEN {
            idx.checked_sub(1)
                .and_then(|i| STATIC_TABLE.get(i))
                .copied()
        } else {
            self.table.get(idx)
        };
        found.ok_or(HpackDecodeError::InvalidIndex(index))
    }

    /// Decodes a literal representation into `slot`, returning the octets
    /// it spans.
    fn literal_into(
        &self,
        buf: &[u8],
        prefix: u8,
        slot: &mut Header,
    ) -> Result<usize, HpackDecodeError> {
        let (name_index, mut used) = integer::decode(buf, prefix)?;
        if name_index == 0 {
            used += string_into(
                &buf[used..],
                &mut slot.name,
                HpackDecodeError::InvalidHeaderName,
            )?;
        } else {
            assign(&mut slot.name, self.entry(name_index)?.0);
        }
        used += string_into(
            &buf[used..],
            &mut slot.value,
            HpackDecodeError::InvalidHeaderValue,
        )?;
        Ok(used)
    }
}

/// The next slot of a list being decoded in place: an existing entry to
/// overwrite, or a new empty one when the list is short.
fn next_slot<'a>(out: &'a mut Vec<Header>, fields: &mut usize) -> &'a mut Header {
    if *fields == out.len() {
        out.push(Header::new(String::new(), String::new()));
    }
    *fields += 1;
    &mut out[*fields - 1]
}

/// Overwrites `s` with `text`, keeping its capacity.
fn assign(s: &mut String, text: &str) {
    s.clear();
    s.push_str(text);
}

/// Decodes a string literal into `out` (overwritten, capacity kept),
/// returning the octets it spans; bytes that are not UTF-8 are `invalid`.
fn string_into(
    buf: &[u8],
    out: &mut String,
    invalid: HpackDecodeError,
) -> Result<usize, HpackDecodeError> {
    let &first = buf.first().ok_or(HpackDecodeError::Truncated)?;
    let huffman_coded = first & 0b1000_0000 != 0;
    let (len, used) = integer::decode(buf, 7)?;
    let end = used
        .checked_add(len as usize)
        .ok_or(HpackDecodeError::IntegerOverflow)?;
    if buf.len() < end {
        return Err(HpackDecodeError::Truncated);
    }
    let raw = &buf[used..end];
    if huffman_coded {
        let mut bytes = std::mem::take(out).into_bytes();
        bytes.clear();
        huffman::decode_into(raw, &mut bytes)?;
        *out = String::from_utf8(bytes).map_err(|_| invalid)?;
    } else {
        assign(out, std::str::from_utf8(raw).map_err(|_| invalid)?);
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderOptions, IndexingPolicy};

    fn h(name: &str, value: &str) -> Header {
        Header::new(name, value)
    }

    /// RFC 7541 §C.3: three successive request blocks without Huffman.
    #[test]
    fn rfc_c3_request_examples() {
        let mut dec = Decoder::new();
        // C.3.1 first request.
        let block1 = [
            0x82, 0x86, 0x84, 0x41, 0x0f, 0x77, 0x77, 0x77, 0x2e, 0x65, 0x78, 0x61, 0x6d, 0x70,
            0x6c, 0x65, 0x2e, 0x63, 0x6f, 0x6d,
        ];
        let got = dec.decode_block(&block1).unwrap();
        assert_eq!(
            got,
            vec![
                h(":method", "GET"),
                h(":scheme", "http"),
                h(":path", "/"),
                h(":authority", "www.example.com"),
            ]
        );
        assert_eq!(dec.table().size(), 57);

        // C.3.2 second request reuses the dynamic entry.
        let block2 = [
            0x82, 0x86, 0x84, 0xbe, 0x58, 0x08, 0x6e, 0x6f, 0x2d, 0x63, 0x61, 0x63, 0x68, 0x65,
        ];
        let got = dec.decode_block(&block2).unwrap();
        assert_eq!(got[3], h(":authority", "www.example.com"));
        assert_eq!(got[4], h("cache-control", "no-cache"));
        assert_eq!(dec.table().size(), 110);

        // C.3.3 third request.
        let block3 = [
            0x82, 0x87, 0x85, 0xbf, 0x40, 0x0a, 0x63, 0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x6b,
            0x65, 0x79, 0x0c, 0x63, 0x75, 0x73, 0x74, 0x6f, 0x6d, 0x2d, 0x76, 0x61, 0x6c, 0x75,
            0x65,
        ];
        let got = dec.decode_block(&block3).unwrap();
        assert_eq!(
            got,
            vec![
                h(":method", "GET"),
                h(":scheme", "https"),
                h(":path", "/index.html"),
                h(":authority", "www.example.com"),
                h("custom-key", "custom-value"),
            ]
        );
        assert_eq!(dec.table().size(), 164);
        assert_eq!(dec.table().len(), 3);
    }

    /// RFC 7541 §C.4: the same requests with Huffman coding.
    #[test]
    fn rfc_c4_huffman_request_examples() {
        let mut dec = Decoder::new();
        let block1 = [
            0x82, 0x86, 0x84, 0x41, 0x8c, 0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab,
            0x90, 0xf4, 0xff,
        ];
        let got = dec.decode_block(&block1).unwrap();
        assert_eq!(got[3], h(":authority", "www.example.com"));
        assert_eq!(dec.table().size(), 57);
    }

    #[test]
    fn round_trip_with_all_policies() {
        let headers = vec![
            h(":status", "200"),
            h("server", "h2o/1.6.2"),
            h("content-type", "text/html; charset=utf-8"),
            h("x-custom", "value-\u{00e9}\u{00ff}"),
        ];
        for policy in [
            IndexingPolicy::Always,
            IndexingPolicy::Never,
            IndexingPolicy::NeverIndexed,
        ] {
            for use_huffman in [true, false] {
                let mut enc = Encoder::with_options(EncoderOptions {
                    indexing: policy,
                    use_huffman,
                    ..EncoderOptions::default()
                });
                let mut dec = Decoder::new();
                for _ in 0..3 {
                    let block = enc.encode_block(&headers);
                    let got = dec.decode_block(&block).unwrap();
                    assert_eq!(got, headers, "policy {policy:?} huffman {use_huffman}");
                }
            }
        }
    }

    #[test]
    fn index_zero_is_rejected() {
        let mut dec = Decoder::new();
        assert_eq!(
            dec.decode_block(&[0x80]),
            Err(HpackDecodeError::InvalidIndex(0))
        );
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let mut dec = Decoder::new();
        // Indexed field 62 with an empty dynamic table.
        let mut block = Vec::new();
        integer::decode(&[0], 7).ok(); // silence unused import lint path
        crate::integer::encode(62, 7, 0x80, &mut block);
        assert_eq!(
            dec.decode_block(&block),
            Err(HpackDecodeError::InvalidIndex(62))
        );
    }

    #[test]
    fn late_table_size_update_is_rejected() {
        let mut dec = Decoder::new();
        // Indexed :method GET, then a size update.
        let block = [0x82, 0x20];
        assert_eq!(
            dec.decode_block(&block),
            Err(HpackDecodeError::LateTableSizeUpdate)
        );
    }

    #[test]
    fn oversized_table_update_is_rejected() {
        let mut dec = Decoder::with_table_size(4_096);
        let mut block = Vec::new();
        crate::integer::encode(8_192, 5, 0b0010_0000, &mut block);
        assert_eq!(
            dec.decode_block(&block),
            Err(HpackDecodeError::TableSizeUpdateTooLarge {
                requested: 8_192,
                max: 4_096
            })
        );
    }

    #[test]
    fn truncated_literal_is_rejected() {
        let mut dec = Decoder::new();
        // Literal with incremental indexing, name length 10, but no bytes.
        let block = [0x40, 0x0a];
        assert_eq!(dec.decode_block(&block), Err(HpackDecodeError::Truncated));
    }

    #[test]
    fn non_utf8_bytes_name_the_field_they_corrupt() {
        // Literal without indexing, new name "a", raw value 0xff.
        let mut dec = Decoder::new();
        assert_eq!(
            dec.decode_block(&[0x00, 0x01, b'a', 0x01, 0xff]),
            Err(HpackDecodeError::InvalidHeaderValue)
        );
        // The same bytes with name and value swapped.
        assert_eq!(
            dec.decode_block(&[0x00, 0x01, 0xff, 0x01, b'a']),
            Err(HpackDecodeError::InvalidHeaderName)
        );
    }

    #[test]
    fn decode_into_overwrites_grows_and_truncates_in_place() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let long = vec![h(":status", "200"), h("server", "x"), h("x-a", "b")];
        let mut out = vec![h("junk-name", "junk-value"); 5];
        dec.decode_block_into(&enc.encode_block(&long), &mut out)
            .unwrap();
        assert_eq!(out, long);
        let short = [h(":status", "404")];
        dec.decode_block_into(&enc.encode_block(&short), &mut out)
            .unwrap();
        assert_eq!(out, short);
    }

    #[test]
    fn decoder_respects_encoder_size_updates() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let headers = vec![h("a-header", "a-value"), h("b-header", "b-value")];
        dec.decode_block(&enc.encode_block(&headers)).unwrap();
        assert_eq!(dec.table().len(), 2);
        enc.resize_table(0);
        dec.decode_block(&enc.encode_block(&[h(":method", "GET")]))
            .unwrap();
        assert_eq!(dec.table().len(), 0, "size update 0 must flush the table");
    }
}
