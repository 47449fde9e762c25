//! Shared, immutable word buffers: the arena behind the zero-copy chunk
//! path.
//!
//! Every payload that travels the stack — a [`crate::node::Chunk`]'s
//! data, a [`crate::transport::Frame`]'s payload — used to be its own
//! `Vec<f64>`, cloned at every hand-off: once when a model was striped
//! into chunks, again when a chunk was wrapped in a frame, again when a
//! received frame was unwrapped. [`WordBuf`] replaces those copies with
//! a reference-counted view: one allocation holds the words, and every
//! chunk/frame/duplicate that refers to them is a `(Arc, start, len)`
//! triple whose `clone()` is a refcount bump.
//!
//! The type is deliberately **immutable**: aliased payloads must never
//! change under a reader, so the only way to "modify" one (fault
//! injection's bit flips) is to copy out, damage the copy, and rebuild.
//! That keeps the zero-copy path safe by construction.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable view into a shared `f64` allocation.
///
/// Dereferences to `&[f64]`, compares by content — bit patterns, not
/// float values: a word may be a NaN gradient or two packed `i32`s, and
/// must equal itself either way — and clones by refcount bump.
/// Sub-views ([`WordBuf::slice`]) share the parent's allocation —
/// striping a model into chunks costs one copy total, not one per
/// chunk.
#[derive(Clone)]
pub struct WordBuf {
    /// `None` for an empty buffer, which holds no allocation.
    buf: Option<Arc<Vec<f64>>>,
    start: usize,
    len: usize,
}

impl WordBuf {
    /// The empty buffer: `len() == 0`, and no allocation, so a control
    /// frame's payload costs nothing.
    pub(crate) fn empty() -> Self {
        WordBuf { buf: None, start: 0, len: 0 }
    }

    /// Takes ownership of `words` without copying them.
    pub(crate) fn from_vec(words: Vec<f64>) -> Self {
        let len = words.len();
        if len == 0 {
            return Self::empty();
        }
        WordBuf { buf: Some(Arc::new(words)), start: 0, len }
    }

    /// Copies `words` into a fresh allocation.
    pub(crate) fn copy_of(words: &[f64]) -> Self {
        Self::from_vec(words.to_vec())
    }

    /// A sub-view of `len` words starting at `start` (relative to this
    /// view), sharing the same allocation.
    ///
    /// # Panics
    /// If `start + len` runs past the end of this view.
    pub(crate) fn slice(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len,
            "slice {start}+{len} out of bounds of a {}-word WordBuf",
            self.len
        );
        WordBuf { buf: self.buf.clone(), start: self.start + start, len }
    }

    /// The words as a plain slice.
    pub(crate) fn as_slice(&self) -> &[f64] {
        self.buf.as_deref().map_or(&[], |buf| &buf[self.start..self.start + self.len])
    }

    /// Recovers a `Vec<f64>`, reusing the allocation when this view is
    /// the whole buffer and the last reference to it; otherwise copies.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        match self.buf {
            Some(buf) if self.start == 0 && self.len == buf.len() => {
                Arc::try_unwrap(buf).unwrap_or_else(|shared| shared[..].to_vec())
            }
            _ => self.as_slice().to_vec(),
        }
    }

    /// Whether two views share one allocation (refcount siblings).
    /// Diagnostic for zero-copy tests: a true result proves no payload
    /// copy happened between the two hand-off points.
    #[cfg(test)]
    pub(crate) fn shares_allocation(&self, other: &WordBuf) -> bool {
        matches!((&self.buf, &other.buf), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// How many views hold this one's allocation (0 for none).
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        self.buf.as_ref().map_or(0, Arc::strong_count)
    }
}

/// `spare`'s buffer as an empty `Vec<U>`, for a `U` laid out as `T` is
/// — in practice the same borrow with another lifetime, so a table of
/// borrowed slices outlives the borrows it held and is not allocated
/// again. `collect` reuses a vector's buffer in place when the layouts
/// match; the `cost_ledger` test counts that it does.
pub(crate) fn recycle<T, U>(mut spare: Vec<T>) -> Vec<U> {
    spare.clear();
    spare.into_iter().map(|_| unreachable!("cleared")).collect()
}

impl Deref for WordBuf {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a WordBuf {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Default for WordBuf {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialEq for WordBuf {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl std::fmt::Debug for WordBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<f64>> for WordBuf {
    fn from(words: Vec<f64>) -> Self {
        Self::from_vec(words)
    }
}

impl From<&[f64]> for WordBuf {
    fn from(words: &[f64]) -> Self {
        Self::copy_of(words)
    }
}

impl FromIterator<f64> for WordBuf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_allocation() {
        let base = WordBuf::from_vec((0..100).map(f64::from).collect());
        let head = base.slice(0, 10);
        let tail = base.slice(90, 10);
        assert!(head.shares_allocation(&base));
        assert!(head.shares_allocation(&tail));
        assert_eq!(head[0], 0.0);
        assert_eq!(tail[9], 99.0);
        let copy = WordBuf::copy_of(&base);
        assert!(!copy.shares_allocation(&base));
        assert_eq!(copy, base);
    }

    #[test]
    fn clone_is_a_refcount_bump() {
        let a = WordBuf::from_vec(vec![1.0, 2.0]);
        let b = a.clone();
        assert!(a.shares_allocation(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn into_vec_reuses_a_sole_full_view() {
        let words = vec![3.0; 16];
        let ptr = words.as_ptr();
        let buf = WordBuf::from_vec(words);
        let back = buf.into_vec();
        assert_eq!(back.as_ptr(), ptr, "sole full view must not copy");
        assert_eq!(back, vec![3.0; 16]);

        // A shared or partial view has to copy.
        let buf = WordBuf::from_vec(vec![1.0, 2.0, 3.0]);
        let kept = buf.clone();
        assert_eq!(buf.into_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(kept.slice(1, 2).into_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn equality_is_by_content_not_allocation() {
        let a = WordBuf::from_vec(vec![1.0, 2.0]);
        let b = WordBuf::from_vec(vec![1.0, 2.0]);
        assert!(!a.shares_allocation(&b));
        assert_eq!(a, b);
        assert_ne!(a, WordBuf::from_vec(vec![1.0]));
        assert_eq!(WordBuf::empty(), WordBuf::default());
    }

    #[test]
    fn an_empty_buffer_holds_no_allocation() {
        for empty in [WordBuf::empty(), WordBuf::from_vec(Vec::new()), WordBuf::copy_of(&[])] {
            assert!(empty.buf.is_none());
            assert!(empty.is_empty());
            assert_eq!(empty.slice(0, 0), WordBuf::default());
            assert!(!empty.shares_allocation(&WordBuf::empty()));
            assert_eq!(empty.into_vec(), Vec::<f64>::new());
        }
    }

    #[test]
    fn recycle_keeps_the_buffer() {
        let words = [1.0, 2.0];
        let mut table: Vec<&[f64]> = Vec::with_capacity(8);
        table.push(&words);
        let at = table.as_ptr() as usize;
        let kept: Vec<&'static [f64]> = recycle(table);
        assert_eq!((kept.as_ptr() as usize, kept.len(), kept.capacity()), (at, 0, 8));
    }

    #[test]
    fn equality_is_on_bit_patterns() {
        // Two packed `i32`s with a small negative in the high half spell
        // a NaN; a payload holding one must still equal itself.
        let packed = f64::from_bits(u64::from(7u32) | u64::from(-1i32 as u32) << 32);
        assert!(packed.is_nan());
        let grid = WordBuf::from_vec(vec![packed, 1.0]);
        assert_eq!(grid, grid.clone());
        assert_eq!(WordBuf::from_vec(vec![f64::NAN]), WordBuf::from_vec(vec![f64::NAN]));
        assert_ne!(WordBuf::from_vec(vec![0.0]), WordBuf::from_vec(vec![-0.0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let _ = WordBuf::from_vec(vec![0.0; 4]).slice(2, 3);
    }

    #[test]
    fn collects_and_converts() {
        let buf: WordBuf = (0..4).map(f64::from).collect();
        assert_eq!(&buf[..], &[0.0, 1.0, 2.0, 3.0]);
        let from_slice: WordBuf = [5.0, 6.0][..].into();
        assert_eq!(from_slice.len(), 2);
        assert_eq!(format!("{buf:?}"), "[0.0, 1.0, 2.0, 3.0]");
    }
}
