//! HPACK encoder with configurable indexing policy.

use crate::huffman;
use crate::integer;
use crate::table::{static_lookup, DynamicTable, Header, Key, TableScratch};

/// How the encoder uses the dynamic table.
///
/// The policy knob exists because the paper's Figures 4 and 5 hinge on
/// exactly this implementation difference: GSE/LiteSpeed index response
/// headers aggressively (compression ratio < 0.3 across repeated
/// responses), while Nginx and Tengine never insert response fields into
/// the dynamic table, so every repeated response header costs the same and
/// the measured ratio stays at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexingPolicy {
    /// Insert every literal into the dynamic table (incremental indexing).
    #[default]
    Always,
    /// Never insert into the dynamic table; emit literals without
    /// indexing. Static-table and previously indexed entries are still
    /// referenced by index.
    Never,
    /// Emit literals as never-indexed (RFC 7541 §6.2.3), for sensitive
    /// fields.
    NeverIndexed,
}

/// Options controlling an [`Encoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderOptions {
    /// Dynamic table budget (both sides default to 4,096).
    pub max_table_size: u32,
    /// Whether string literals are Huffman-coded.
    pub use_huffman: bool,
    /// Dynamic-table usage policy.
    pub indexing: IndexingPolicy,
}

impl Default for EncoderOptions {
    fn default() -> EncoderOptions {
        EncoderOptions {
            max_table_size: crate::DEFAULT_TABLE_SIZE,
            use_huffman: true,
            indexing: IndexingPolicy::Always,
        }
    }
}

/// A stateful HPACK encoder for one direction of one connection.
#[derive(Debug, Clone)]
pub struct Encoder {
    table: DynamicTable,
    options: EncoderOptions,
    /// A table-size update to emit at the start of the next block.
    pending_size_update: Option<u32>,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

impl Encoder {
    /// Creates an encoder with default options.
    pub fn new() -> Encoder {
        Encoder::with_options(EncoderOptions::default())
    }

    /// Creates an encoder with explicit options.
    pub fn with_options(options: EncoderOptions) -> Encoder {
        Encoder::new_in(options, TableScratch::default())
    }

    /// [`Encoder::with_options`] in the table storage another encoder or
    /// decoder left behind.
    pub fn new_in(options: EncoderOptions, scratch: TableScratch) -> Encoder {
        Encoder {
            table: DynamicTable::new_in(options.max_table_size, scratch),
            options,
            pending_size_update: None,
        }
    }

    /// Empties the dynamic table and hands back its storage for
    /// [`Encoder::new_in`].
    pub fn take_scratch(&mut self) -> TableScratch {
        self.table.take_scratch()
    }

    /// The indexing policy in force.
    pub fn indexing(&self) -> IndexingPolicy {
        self.options.indexing
    }

    /// Read-only view of the dynamic table (useful in tests and probes).
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Schedules a dynamic-table-size change, emitted as a size-update
    /// instruction at the start of the next encoded block (RFC 7541 §4.2).
    pub fn resize_table(&mut self, max_size: u32) {
        self.table.set_max_size(max_size);
        self.pending_size_update = Some(max_size);
    }

    /// Encodes a complete header list into one header block, appending to
    /// `out` (not cleared first) so callers can reuse a scratch buffer.
    pub fn encode_block_into<'a, I>(&mut self, headers: I, out: &mut Vec<u8>)
    where
        I: IntoIterator<Item = &'a Header>,
    {
        if let Some(size) = self.pending_size_update.take() {
            integer::encode(u64::from(size), 5, 0b0010_0000, out);
        }
        for header in headers {
            self.encode_field(header, out);
        }
    }

    /// Encodes a complete header list into one freshly allocated block.
    pub fn encode_block<'a, I>(&mut self, headers: I) -> Vec<u8>
    where
        I: IntoIterator<Item = &'a Header>,
    {
        let mut out = Vec::new();
        self.encode_block_into(headers, &mut out);
        out
    }

    fn encode_field(&mut self, header: &Header, out: &mut Vec<u8>) {
        // Exact match in static or dynamic table -> indexed representation.
        let static_hit = static_lookup(&header.name, &header.value);
        if let Some((index, true)) = static_hit {
            integer::encode(index as u64, 7, 0b1000_0000, out);
            return;
        }
        let key = Key::of(&header.name, &header.value);
        let dynamic_hit = self.table.lookup_keyed(&header.name, &header.value, key);
        if let Some((index, true)) = dynamic_hit {
            integer::encode(index as u64, 7, 0b1000_0000, out);
            return;
        }
        // Name index if available (prefer the static table for stability).
        let name_index = match (static_hit, dynamic_hit) {
            (Some((i, _)), _) => Some(i),
            (None, Some((i, _))) => Some(i),
            (None, None) => None,
        };
        let (prefix, flags, add_to_table) = match self.options.indexing {
            IndexingPolicy::Always => (6, 0b0100_0000, true),
            IndexingPolicy::Never => (4, 0b0000_0000, false),
            IndexingPolicy::NeverIndexed => (4, 0b0001_0000, false),
        };
        match name_index {
            Some(index) => integer::encode(index as u64, prefix, flags, out),
            None => {
                integer::encode(0, prefix, flags, out);
                self.encode_string(header.name.as_bytes(), out);
            }
        }
        self.encode_string(header.value.as_bytes(), out);
        if add_to_table {
            self.table.insert_keyed(&header.name, &header.value, key);
        }
    }

    fn encode_string(&self, data: &[u8], out: &mut Vec<u8>) {
        let coded_len = if self.options.use_huffman {
            huffman::encoded_len(data)
        } else {
            data.len()
        };
        if coded_len < data.len() {
            integer::encode(coded_len as u64, 7, 0b1000_0000, out);
            huffman::encode(data, out);
        } else {
            integer::encode(data.len() as u64, 7, 0, out);
            out.extend_from_slice(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;

    fn h(name: &str, value: &str) -> Header {
        Header::new(name, value)
    }

    #[test]
    fn static_exact_match_is_one_byte() {
        let mut enc = Encoder::new();
        let block = enc.encode_block(&[h(":method", "GET")]);
        assert_eq!(block, vec![0x82]); // indexed, static index 2
    }

    #[test]
    fn repeated_custom_header_shrinks_with_indexing() {
        let mut enc = Encoder::new();
        let headers = [h("x-request-id", "abcdef0123456789")];
        let first = enc.encode_block(&headers);
        let second = enc.encode_block(&headers);
        assert!(second.len() < first.len());
        assert_eq!(second.len(), 1, "fully indexed on repeat");
    }

    #[test]
    fn never_policy_keeps_block_size_constant() {
        let mut enc = Encoder::with_options(EncoderOptions {
            indexing: IndexingPolicy::Never,
            ..EncoderOptions::default()
        });
        let headers = [
            h("server", "nginx/1.9.15"),
            h("x-frame-options", "SAMEORIGIN"),
        ];
        let first = enc.encode_block(&headers);
        let second = enc.encode_block(&headers);
        let third = enc.encode_block(&headers);
        assert_eq!(first.len(), second.len());
        assert_eq!(second.len(), third.len());
        assert!(
            enc.table().is_empty(),
            "never policy must not grow the table"
        );
    }

    #[test]
    fn never_indexed_blocks_decode_with_flag_preserved_semantics() {
        let mut enc = Encoder::with_options(EncoderOptions {
            indexing: IndexingPolicy::NeverIndexed,
            ..EncoderOptions::default()
        });
        let mut dec = Decoder::new();
        let block = enc.encode_block(&[h("authorization", "secret")]);
        assert_eq!(block[0] & 0xf0, 0x10, "never-indexed discriminator");
        let decoded = dec.decode_block(&block).unwrap();
        assert_eq!(decoded, vec![h("authorization", "secret")]);
    }

    #[test]
    fn resize_emits_size_update_at_block_start() {
        let mut enc = Encoder::new();
        enc.resize_table(256);
        let block = enc.encode_block(&[h(":method", "GET")]);
        assert_eq!(block[0] & 0b1110_0000, 0b0010_0000, "size update first");
        let mut dec = Decoder::new();
        assert!(dec.decode_block(&block).is_ok());
    }

    #[test]
    fn huffman_disabled_emits_raw_strings() {
        let mut enc = Encoder::with_options(EncoderOptions {
            use_huffman: false,
            ..EncoderOptions::default()
        });
        let block = enc.encode_block(&[h("x", "hello")]);
        let text: Vec<u8> = block
            .windows(5)
            .filter(|w| w == b"hello")
            .flatten()
            .copied()
            .collect();
        assert_eq!(text, b"hello");
    }
}
