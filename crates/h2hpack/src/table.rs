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
    let range = static_range(name)?;
    let first = range.start;
    let exact = STATIC_TABLE
        .get(first - 1..range.end - 1)?
        .iter()
        .position(|&(_, v)| v == value);
    Some(exact.map_or((first, false), |at| (first + at, true)))
}

/// The static indices holding `name`: every entry of one name is
/// adjacent in Appendix A, so a `match` on the name replaces a scan of
/// all 61 entries, and values are compared only inside the range.
fn static_range(name: &str) -> Option<std::ops::Range<usize>> {
    Some(match name {
        ":authority" => 1..2,
        ":method" => 2..4,
        ":path" => 4..6,
        ":scheme" => 6..8,
        ":status" => 8..15,
        "accept-charset" => 15..16,
        "accept-encoding" => 16..17,
        "accept-language" => 17..18,
        "accept-ranges" => 18..19,
        "accept" => 19..20,
        "access-control-allow-origin" => 20..21,
        "age" => 21..22,
        "allow" => 22..23,
        "authorization" => 23..24,
        "cache-control" => 24..25,
        "content-disposition" => 25..26,
        "content-encoding" => 26..27,
        "content-language" => 27..28,
        "content-length" => 28..29,
        "content-location" => 29..30,
        "content-range" => 30..31,
        "content-type" => 31..32,
        "cookie" => 32..33,
        "date" => 33..34,
        "etag" => 34..35,
        "expect" => 35..36,
        "expires" => 36..37,
        "from" => 37..38,
        "host" => 38..39,
        "if-match" => 39..40,
        "if-modified-since" => 40..41,
        "if-none-match" => 41..42,
        "if-range" => 42..43,
        "if-unmodified-since" => 43..44,
        "last-modified" => 44..45,
        "link" => 45..46,
        "location" => 46..47,
        "max-forwards" => 47..48,
        "proxy-authenticate" => 48..49,
        "proxy-authorization" => 49..50,
        "range" => 50..51,
        "referer" => 51..52,
        "refresh" => 52..53,
        "retry-after" => 53..54,
        "server" => 54..55,
        "set-cookie" => 55..56,
        "strict-transport-security" => 56..57,
        "transfer-encoding" => 57..58,
        "user-agent" => 58..59,
        "vary" => 59..60,
        "via" => 60..61,
        "www-authenticate" => 61..62,
        _ => return None,
    })
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
/// `text[name_end..end]`, and its fingerprints are taken once, at insert.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    name_end: usize,
    end: usize,
    key: Key,
}

impl Entry {
    /// The entry's HPACK size (RFC 7541 §4.1).
    fn hpack_size(&self) -> u32 {
        (self.end - self.start + 32) as u32
    }
}

/// 32-bit fingerprints of a field's name and of the whole field. Equal
/// text has equal fingerprints, so [`DynamicTable::lookup`] compares text
/// only where a fingerprint matches. They sit inline in each entry: on
/// tables of a few dozen entries a hash index costs more than it saves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    name: u32,
    field: u32,
}

impl Key {
    pub(crate) fn of(name: &str, value: &str) -> Key {
        let name = fold(name.as_bytes());
        // Two independent folds, then one step joining them.
        let field = step(name, fold(value.as_bytes()));
        Key {
            name: (name >> 32) as u32,
            field: (field >> 32) as u32,
        }
    }
}

/// One Fx hash step: rotate, mix in a word, multiply.
fn step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Folds `bytes` into a hash eight octets at a time, seeded with their
/// length; the high half of the result is the best mixed. A tail shorter
/// than a word is read whole: as the last eight octets (overlapping the
/// last whole word), in text of four to seven octets as two overlapping
/// halves, and only in shorter text octet by octet.
fn fold(bytes: &[u8]) -> u64 {
    let word = |c: &[u8; 8]| u64::from_le_bytes(*c);
    let half = |c: &[u8; 4]| u64::from(u32::from_le_bytes(*c));
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words
        .iter()
        .fold(bytes.len() as u64, |h, c| step(h, word(c)));
    let last = match (
        bytes.last_chunk::<8>(),
        bytes.first_chunk(),
        bytes.last_chunk(),
    ) {
        _ if tail.is_empty() => return h,
        (Some(last), ..) => word(last),
        (None, Some(first), Some(last)) => half(first) << 32 | half(last),
        _ => tail.iter().fold(0, |w, &b| w << 8 | u64::from(b)),
    };
    step(h, last)
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
        self.insert_keyed(name, value, Key::of(name, value));
    }

    /// [`DynamicTable::insert`] with the field's fingerprints already
    /// taken (the encoder took them for its lookup).
    pub(crate) fn insert_keyed(&mut self, name: &str, value: &str, key: Key) {
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
            key,
        });
        self.size += entry_size;
    }

    /// The `(name, value)` at an absolute HPACK index (62-based).
    pub fn get(&self, index: usize) -> Option<(&str, &str)> {
        self.field(self.entries.get(index.checked_sub(STATIC_TABLE_LEN + 1)?)?)
    }

    /// Finds the best dynamic match: `(absolute_index, value_matched)`.
    pub fn lookup(&self, name: &str, value: &str) -> Option<(usize, bool)> {
        self.lookup_keyed(name, value, Key::of(name, value))
    }

    /// [`DynamicTable::lookup`] with the field's fingerprints already
    /// taken: text is compared only where a fingerprint matches.
    pub(crate) fn lookup_keyed(&self, name: &str, value: &str, key: Key) -> Option<(usize, bool)> {
        let text = self.text.as_bytes();
        let mut name_only = None;
        // Equal names have equal name fingerprints, so one compare skips
        // every entry that can match neither way.
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.key.name != key.name {
                continue;
            }
            if entry.key.field == key.field && self.field(entry) == Some((name, value)) {
                return Some((STATIC_TABLE_LEN + 1 + i, true));
            }
            if name_only.is_none() && text.get(entry.start..entry.name_end) == Some(name.as_bytes())
            {
                name_only = Some((STATIC_TABLE_LEN + 1 + i, false));
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
