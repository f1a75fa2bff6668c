//! The HPACK static table (RFC 7541 Appendix A) and dynamic table (§2.3.2,
//! §4).

use std::collections::VecDeque;

/// A header field: a name/value pair of opaque octets (kept as `String`
/// here because the probe and server layers only use ASCII header text).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Header {
    /// Field name, lowercase per HTTP/2 requirements.
    pub name: String,
    /// Field value.
    pub value: String,
}

impl Header {
    /// Creates a header field.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Header {
        Header {
            name: name.into(),
            value: value.into(),
        }
    }

    /// The HPACK size of this entry: name + value + 32 octets of overhead
    /// (RFC 7541 §4.1).
    pub fn hpack_size(&self) -> u32 {
        (self.name.len() + self.value.len() + 32) as u32
    }
}

impl<N: Into<String>, V: Into<String>> From<(N, V)> for Header {
    fn from((name, value): (N, V)) -> Header {
        Header::new(name, value)
    }
}

/// The 61-entry static table from RFC 7541 Appendix A, in index order
/// (index 1 is the first element).
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

/// Number of static-table entries; dynamic entries start at index 62.
pub const STATIC_TABLE_LEN: usize = STATIC_TABLE.len();

/// Looks up a static table entry by 1-based index.
pub fn static_entry(index: usize) -> Option<Header> {
    STATIC_TABLE
        .get(index.checked_sub(1)?)
        .map(|&(n, v)| Header::new(n, v))
}

/// Finds the best static match for a field: `(index, value_matched)`.
pub fn static_lookup(name: &str, value: &str) -> Option<(usize, bool)> {
    let mut name_only = None;
    for (i, &(n, v)) in STATIC_TABLE.iter().enumerate() {
        if n == name {
            if v == value {
                return Some((i + 1, true));
            }
            if name_only.is_none() {
                name_only = Some((i + 1, false));
            }
        }
    }
    name_only
}

/// The HPACK dynamic table: a FIFO of recently indexed fields with a size
/// budget. Newest entry is index 62.
#[derive(Debug, Clone)]
pub struct DynamicTable {
    entries: VecDeque<Header>,
    size: u32,
    max_size: u32,
    /// Upper bound the decoder's peer fixed via SETTINGS; size updates may
    /// not exceed it.
    protocol_max_size: u32,
    /// Running count of entries evicted over the table's lifetime (size
    /// pressure, size updates, and §4.4 whole-table clears alike).
    evictions: u64,
}

impl DynamicTable {
    /// Creates a table with the given maximum size (both current and
    /// protocol ceiling).
    pub fn new(max_size: u32) -> DynamicTable {
        DynamicTable {
            entries: VecDeque::new(),
            size: 0,
            max_size,
            protocol_max_size: max_size,
            evictions: 0,
        }
    }

    /// Total entries evicted since the table was created.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current occupancy in octets.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Current maximum size.
    pub fn max_size(&self) -> u32 {
        self.max_size
    }

    /// The ceiling fixed by SETTINGS_HEADER_TABLE_SIZE.
    pub fn protocol_max_size(&self) -> u32 {
        self.protocol_max_size
    }

    /// Raises or lowers the SETTINGS-level ceiling (e.g. after a SETTINGS
    /// exchange). Lowering it also clamps the current size.
    pub fn set_protocol_max_size(&mut self, max: u32) {
        self.protocol_max_size = max;
        if self.max_size > max {
            self.set_max_size(max);
        }
    }

    /// Applies a dynamic-table-size update (RFC 7541 §4.2), evicting as
    /// needed.
    pub fn set_max_size(&mut self, max: u32) {
        self.max_size = max;
        self.evict_to(max);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a field at the head of the table (index 62), evicting from
    /// the tail. An entry larger than the whole table empties it
    /// (RFC 7541 §4.4).
    pub fn insert(&mut self, header: Header) {
        let entry_size = header.hpack_size();
        if entry_size > self.max_size {
            self.evictions += self.entries.len() as u64;
            self.entries.clear();
            self.size = 0;
            return;
        }
        self.evict_to(self.max_size - entry_size);
        self.size += entry_size;
        self.entries.push_front(header);
    }

    /// Looks up an entry by absolute HPACK index (62-based).
    pub fn get(&self, index: usize) -> Option<&Header> {
        self.entries.get(index.checked_sub(STATIC_TABLE_LEN + 1)?)
    }

    /// Finds the best dynamic match: `(absolute_index, value_matched)`.
    pub fn lookup(&self, name: &str, value: &str) -> Option<(usize, bool)> {
        let mut name_only = None;
        for (i, h) in self.entries.iter().enumerate() {
            if h.name == name {
                if h.value == value {
                    return Some((STATIC_TABLE_LEN + 1 + i, true));
                }
                if name_only.is_none() {
                    name_only = Some((STATIC_TABLE_LEN + 1 + i, false));
                }
            }
        }
        name_only
    }

    fn evict_to(&mut self, budget: u32) {
        while self.size > budget {
            #[expect(
                clippy::expect_used,
                reason = "size > budget >= 0 implies a resident entry"
            )]
            let evicted = self.entries.pop_back().expect("size > 0 implies entries");
            self.size -= evicted.hpack_size();
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_spot_checks() {
        assert_eq!(static_entry(1).unwrap(), Header::new(":authority", ""));
        assert_eq!(static_entry(2).unwrap(), Header::new(":method", "GET"));
        assert_eq!(static_entry(8).unwrap(), Header::new(":status", "200"));
        assert_eq!(static_entry(54).unwrap(), Header::new("server", ""));
        assert_eq!(
            static_entry(61).unwrap(),
            Header::new("www-authenticate", "")
        );
        assert_eq!(static_entry(0), None);
        assert_eq!(static_entry(62), None);
    }

    #[test]
    fn eviction_counter_tracks_all_eviction_paths() {
        let mut table = DynamicTable::new(100);
        assert_eq!(table.evictions(), 0);
        // Header::hpack_size = name + value + 32; "aa"+"bbbb" = 38 octets.
        table.insert(Header::new("aa", "bbbb"));
        table.insert(Header::new("aa", "bbbb"));
        assert_eq!(table.evictions(), 0);
        // Third insert (38*3 = 114 > 100) evicts one from the tail.
        table.insert(Header::new("aa", "bbbb"));
        assert_eq!(table.evictions(), 1);
        // A size update shrinking to one entry evicts one more.
        table.set_max_size(40);
        assert_eq!(table.evictions(), 2);
        // An entry larger than the table clears it (§4.4): +1 eviction.
        table.insert(Header::new("xxxxxxxxxxxxxxxx", "yyyyyyyyyyyyyyyy"));
        assert_eq!(table.len(), 0);
        assert_eq!(table.evictions(), 3);
    }

    #[test]
    fn static_lookup_prefers_exact_match() {
        assert_eq!(static_lookup(":method", "GET"), Some((2, true)));
        assert_eq!(static_lookup(":method", "PUT"), Some((2, false)));
        assert_eq!(static_lookup("x-custom", "y"), None);
    }

    #[test]
    fn entry_size_includes_32_byte_overhead() {
        // RFC 7541 §4.1 example sizes.
        assert_eq!(
            Header::new("custom-key", "custom-value").hpack_size(),
            10 + 12 + 32
        );
    }

    #[test]
    fn insert_evicts_oldest_first() {
        let mut table = DynamicTable::new(100);
        table.insert(Header::new("a", "1")); // 34
        table.insert(Header::new("b", "2")); // 34
        table.insert(Header::new("c", "3")); // 34 -> would be 102, evict "a"
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(62).unwrap().name, "c");
        assert_eq!(table.get(63).unwrap().name, "b");
        assert_eq!(table.get(64), None);
    }

    #[test]
    fn oversized_entry_clears_table() {
        let mut table = DynamicTable::new(40);
        table.insert(Header::new("a", "1"));
        assert_eq!(table.len(), 1);
        table.insert(Header::new("long-name", "long-value-that-overflows"));
        assert!(table.is_empty());
        assert_eq!(table.size(), 0);
    }

    #[test]
    fn size_update_evicts() {
        let mut table = DynamicTable::new(200);
        table.insert(Header::new("a", "1"));
        table.insert(Header::new("b", "2"));
        table.set_max_size(40);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(62).unwrap().name, "b");
    }

    #[test]
    fn lookup_returns_newest_exact_match() {
        let mut table = DynamicTable::new(1000);
        table.insert(Header::new("k", "old"));
        table.insert(Header::new("k", "new"));
        assert_eq!(table.lookup("k", "new"), Some((62, true)));
        assert_eq!(table.lookup("k", "old"), Some((63, true)));
        assert_eq!(table.lookup("k", "other"), Some((62, false)));
    }

    #[test]
    fn protocol_ceiling_clamps_current_max() {
        let mut table = DynamicTable::new(4096);
        table.insert(Header::new("a", "1"));
        table.set_protocol_max_size(0);
        assert_eq!(table.max_size(), 0);
        assert!(table.is_empty());
    }
}
