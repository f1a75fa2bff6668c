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

    /// Overwrites both fields in place, keeping their capacity.
    pub fn set(&mut self, name: &str, value: &str) {
        self.name.clear();
        self.name.push_str(name);
        self.value.clear();
        self.value.push_str(value);
    }

    /// Empties both fields, keeping their capacity: a list of cleared
    /// fields is storage a later header list is written into.
    pub fn clear(&mut self) {
        self.set("", "");
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
///
/// Field text lives in one arena, oldest entry first: an insert appends
/// its name and value, an eviction only moves the arena's start past the
/// evicted text, and the dead prefix is dropped when the arena would
/// otherwise have to grow.
#[derive(Debug, Clone)]
pub struct DynamicTable {
    /// Newest entry first.
    entries: VecDeque<Entry>,
    text: String,
    /// Start of the oldest entry's text: everything before it is evicted.
    head: usize,
    size: u32,
    max_size: u32,
    /// Upper bound the decoder's peer fixed via SETTINGS; size updates may
    /// not exceed it.
    protocol_max_size: u32,
    /// Running count of entries evicted over the table's lifetime (size
    /// pressure, size updates, and §4.4 whole-table clears alike).
    evictions: u64,
}

/// One entry: its name is `text[start..name_end]`, its value
/// `text[name_end..end]`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    name_end: usize,
    end: usize,
}

impl Entry {
    /// The entry's HPACK size (RFC 7541 §4.1).
    fn hpack_size(&self) -> u32 {
        (self.end - self.start + 32) as u32
    }
}

/// The storage a [`DynamicTable`] leaves behind: its entry list and text
/// arena, both empty. Only [`Default`] and [`DynamicTable::take_scratch`]
/// make one, so a table built from it starts as empty as a new one.
#[derive(Debug, Default)]
pub struct TableScratch {
    entries: VecDeque<Entry>,
    text: String,
}

impl DynamicTable {
    /// Creates a table with the given maximum size (both current and
    /// protocol ceiling).
    pub fn new(max_size: u32) -> DynamicTable {
        DynamicTable::new_in(max_size, TableScratch::default())
    }

    /// [`DynamicTable::new`] in the storage another table left behind.
    pub fn new_in(max_size: u32, scratch: TableScratch) -> DynamicTable {
        DynamicTable {
            entries: scratch.entries,
            text: scratch.text,
            head: 0,
            size: 0,
            max_size,
            protocol_max_size: max_size,
            evictions: 0,
        }
    }

    /// Empties the table and hands back its storage for
    /// [`DynamicTable::new_in`].
    pub fn take_scratch(&mut self) -> TableScratch {
        self.clear();
        TableScratch {
            entries: std::mem::take(&mut self.entries),
            text: std::mem::take(&mut self.text),
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
    pub fn insert(&mut self, name: &str, value: &str) {
        let entry_size = (name.len() + value.len() + 32) as u32;
        if entry_size > self.max_size {
            self.evictions += self.entries.len() as u64;
            self.clear();
            return;
        }
        self.evict_to(self.max_size - entry_size);
        if self.entries.is_empty() {
            self.text.clear();
            self.head = 0;
        } else if self.head > 0 && self.text.len() + name.len() + value.len() > self.text.capacity()
        {
            self.compact();
        }
        let start = self.text.len();
        self.text.push_str(name);
        self.text.push_str(value);
        self.entries.push_front(Entry {
            start,
            name_end: start + name.len(),
            end: self.text.len(),
        });
        self.size += entry_size;
    }

    /// The `(name, value)` at an absolute HPACK index (62-based).
    pub fn get(&self, index: usize) -> Option<(&str, &str)> {
        self.field(self.entries.get(index.checked_sub(STATIC_TABLE_LEN + 1)?)?)
    }

    /// Finds the best dynamic match: `(absolute_index, value_matched)`.
    pub fn lookup(&self, name: &str, value: &str) -> Option<(usize, bool)> {
        let text = self.text.as_bytes();
        let mut name_only = None;
        for (i, entry) in self.entries.iter().enumerate() {
            if text.get(entry.start..entry.name_end) == Some(name.as_bytes()) {
                if text.get(entry.name_end..entry.end) == Some(value.as_bytes()) {
                    return Some((STATIC_TABLE_LEN + 1 + i, true));
                }
                if name_only.is_none() {
                    name_only = Some((STATIC_TABLE_LEN + 1 + i, false));
                }
            }
        }
        name_only
    }

    /// An entry's text. Always `Some`: every entry's bounds lie on the
    /// boundaries of the `&str`s it was inserted from.
    fn field(&self, entry: &Entry) -> Option<(&str, &str)> {
        Some((
            self.text.get(entry.start..entry.name_end)?,
            self.text.get(entry.name_end..entry.end)?,
        ))
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.text.clear();
        self.head = 0;
        self.size = 0;
    }

    /// Drops the evicted text before `head`, moving the live text to the
    /// arena's start.
    fn compact(&mut self) {
        let dead = self.head;
        self.text.drain(..dead);
        for entry in &mut self.entries {
            entry.start -= dead;
            entry.name_end -= dead;
            entry.end -= dead;
        }
        self.head = 0;
    }

    fn evict_to(&mut self, budget: u32) {
        while self.size > budget {
            #[expect(
                clippy::expect_used,
                reason = "size > budget >= 0 implies a resident entry"
            )]
            let evicted = self.entries.pop_back().expect("size > 0 implies entries");
            self.size -= evicted.hpack_size();
            self.head = evicted.end;
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
        table.insert("aa", "bbbb");
        table.insert("aa", "bbbb");
        assert_eq!(table.evictions(), 0);
        // Third insert (38*3 = 114 > 100) evicts one from the tail.
        table.insert("aa", "bbbb");
        assert_eq!(table.evictions(), 1);
        // A size update shrinking to one entry evicts one more.
        table.set_max_size(40);
        assert_eq!(table.evictions(), 2);
        // An entry larger than the table clears it (§4.4): +1 eviction.
        table.insert("xxxxxxxxxxxxxxxx", "yyyyyyyyyyyyyyyy");
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
        table.insert("a", "1"); // 34
        table.insert("b", "2"); // 34
        table.insert("c", "3"); // 34 -> would be 102, evict "a"
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(62).unwrap().0, "c");
        assert_eq!(table.get(63).unwrap().0, "b");
        assert_eq!(table.get(64), None);
    }

    #[test]
    fn oversized_entry_clears_table() {
        let mut table = DynamicTable::new(40);
        table.insert("a", "1");
        assert_eq!(table.len(), 1);
        table.insert("long-name", "long-value-that-overflows");
        assert!(table.is_empty());
        assert_eq!(table.size(), 0);
    }

    #[test]
    fn size_update_evicts() {
        let mut table = DynamicTable::new(200);
        table.insert("a", "1");
        table.insert("b", "2");
        table.set_max_size(40);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(62).unwrap().0, "b");
    }

    #[test]
    fn lookup_returns_newest_exact_match() {
        let mut table = DynamicTable::new(1000);
        table.insert("k", "old");
        table.insert("k", "new");
        assert_eq!(table.lookup("k", "new"), Some((62, true)));
        assert_eq!(table.lookup("k", "old"), Some((63, true)));
        assert_eq!(table.lookup("k", "other"), Some((62, false)));
    }

    /// The arena under inserts, evictions, compactions, size updates and
    /// a storage handoff reads the same as a list of owned fields.
    #[test]
    fn arena_reads_like_a_list_of_owned_fields() {
        let mut table = DynamicTable::new(300);
        let mut model: VecDeque<Header> = VecDeque::new();
        for i in 0..600usize {
            if i % 150 == 149 {
                table = DynamicTable::new_in(300, table.take_scratch());
                model.clear();
            }
            let max = if i % 50 < 40 { 300 } else { 120 };
            if max != table.max_size() {
                table.set_max_size(max);
            }
            let field = Header::new("n".repeat(1 + i % 7), "v\u{e9}".repeat(i * 13 % 23));
            table.insert(&field.name, &field.value);
            model.push_front(field);
            while model.iter().map(Header::hpack_size).sum::<u32>() > max {
                model.pop_back();
            }
            assert_eq!(table.len(), model.len(), "insert {i}");
            assert_eq!(table.size(), model.iter().map(Header::hpack_size).sum());
            for (at, field) in model.iter().enumerate() {
                let got = table.get(62 + at);
                assert_eq!(got, Some((field.name.as_str(), field.value.as_str())));
            }
        }
        assert!(table.text.capacity() < 4 * 300, "evicted text is reclaimed");
    }

    #[test]
    fn protocol_ceiling_clamps_current_max() {
        let mut table = DynamicTable::new(4096);
        table.insert("a", "1");
        table.set_protocol_max_size(0);
        assert_eq!(table.max_size(), 0);
        assert!(table.is_empty());
    }
}
