//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it actually uses: [`Bytes`], a cheaply
//! cloneable, sliceable, immutable byte buffer backed by a shared
//! `Arc<Vec<u8>>`. Semantics match the real crate for every operation
//! exposed here; `slice()` is zero-copy, clones share the same
//! allocation, and — the property the workspace's zero-copy receive
//! path leans on — `From<Vec<u8>>` takes ownership of the vector's
//! existing heap block instead of copying it.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

/// One process-wide empty backing store, so `Bytes::new()` never
/// allocates a fresh `Arc` per empty buffer.
fn shared_empty() -> Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new())).clone()
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: shared_empty(),
            start: 0,
            end: 0,
        }
    }
}

impl Bytes {
    /// An empty buffer (no new allocation; all empties share one store).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer borrowing a `'static` slice. The stand-in copies into an
    /// `Arc` once; clones still share that single allocation.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Panics on out-of-range bounds, like the real
    /// crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not exceed end");
        assert!(end <= len, "range end out of bounds: {end} > {len}");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// The bytes as a plain slice.
    #[allow(
        clippy::should_implement_trait,
        reason = "inherent twin of `AsRef<[u8]>::as_ref`, so call sites infer the slice type"
    )]
    pub fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the view into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Recovers the *full* backing `Vec` without copying when this
    /// handle is the only one alive, regardless of the range this view
    /// covers; otherwise the view is returned unchanged as the error.
    ///
    /// This is a stand-in extension (the real crate's closest analogue
    /// is `try_into_mut`): the simulated transport uses it to return a
    /// fully-decoded segment to its buffer pool once no frame retains a
    /// payload slice of it. Callers recycle the vector's capacity, so
    /// getting back more bytes than the view held is the point, not a
    /// hazard.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when other clones still share the storage.
    pub fn try_into_vec(self) -> Result<Vec<u8>, Bytes> {
        let (start, end) = (self.start, self.end);
        Arc::try_unwrap(self.data).map_err(|data| Bytes { data, start, end })
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the vector's heap block; no bytes are copied.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_and_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(Bytes::from_static(b"\x03\x04"), s2);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_slice_panics() {
        let _ = Bytes::from(vec![1u8, 2]).slice(0..3);
    }

    #[test]
    fn from_vec_preserves_the_heap_block() {
        let v = vec![7u8; 64];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr, "no copy on Vec -> Bytes");
        let back = b.try_into_vec().expect("unique handle unwraps");
        assert_eq!(back.as_ptr(), ptr, "no copy on Bytes -> Vec either");
    }

    #[test]
    fn try_into_vec_fails_while_shared_and_recovers_the_full_buffer() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let kept = b.slice(1..3);
        let b = b.try_into_vec().expect_err("slice still shares storage");
        drop(kept);
        // A narrowed, fully-advanced cursor still recovers the whole
        // backing vector once it is the last handle.
        let cursor = b.slice(4..4);
        drop(b);
        assert_eq!(cursor.try_into_vec().expect("unique"), vec![1, 2, 3, 4]);
    }
}
