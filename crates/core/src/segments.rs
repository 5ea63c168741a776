//! Append-only storage whose elements never move.
//!
//! [`Segments`] backs the request slab and the communicator table: both are
//! indexed by a dense integer, grow while the runtime runs, and are read on
//! every message. Elements live in geometrically growing segments that are
//! never reallocated, so a lookup is one atomic load of the segment pointer
//! plus an offset — no lock, no hashing, no reference count — and a `&T`
//! handed out stays valid for the table's whole life. Segment growth is a
//! compare-exchange on that pointer through the `fairmpi-sync` facade, so
//! the model checker sees it like any other operation.

use std::marker::PhantomData;

use fairmpi_sync::atomic::{AtomicPtr, Ordering};

/// Segment 0 holds `1 << BASE_LOG2` elements; segment `k` holds twice as
/// many as segment `k - 1`.
const BASE_LOG2: u32 = 5;
const BASE: usize = 1 << BASE_LOG2;
/// Enough segments to cover every `u32` index below [`CAPACITY`].
const MAX_SEGMENTS: usize = (u32::BITS - BASE_LOG2) as usize;
/// Number of addressable elements: `BASE * (2^MAX_SEGMENTS - 1)`.
pub(crate) const CAPACITY: usize = BASE * ((1 << MAX_SEGMENTS) - 1);

/// `(segment, offset, segment length)` of element `index`.
fn locate(index: usize) -> (usize, usize, usize) {
    let biased = index + BASE;
    let top = usize::BITS - 1 - biased.leading_zeros();
    let segment = (top - BASE_LOG2) as usize;
    (segment, biased - (1 << top), BASE << segment)
}

/// A dense, append-only table of default-initialised elements.
pub(crate) struct Segments<T> {
    heads: [AtomicPtr<T>; MAX_SEGMENTS],
    _owns: PhantomData<Box<[T]>>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Self {
            heads: std::array::from_fn(|_| AtomicPtr::default()),
            _owns: PhantomData,
        }
    }
}

impl<T: Default> Segments<T> {
    /// The element at `index`, if its segment exists.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        if index >= CAPACITY {
            return None;
        }
        let (segment, offset, _) = locate(index);
        let head = self.heads[segment].load(Ordering::Acquire);
        // SAFETY: a non-null head points at a published segment of
        // `BASE << segment` elements (offset is below that by `locate`),
        // which is freed only when `self` drops.
        (!head.is_null()).then(|| unsafe { &*head.add(offset) })
    }

    /// The element at `index`, allocating its segment first if needed.
    /// Racing growers agree through a compare-exchange; the loser frees
    /// its copy.
    pub(crate) fn get_or_grow(&self, index: usize) -> &T {
        if let Some(element) = self.get(index) {
            return element;
        }
        assert!(
            index < CAPACITY,
            "segmented table index {index} out of range"
        );
        let (segment, offset, len) = locate(index);
        let fresh: Box<[T]> = (0..len).map(|_| T::default()).collect();
        let fresh = Box::into_raw(fresh) as *mut T;
        let head = match self.heads[segment].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` came from `Box::into_raw` above and was
                // never published.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, len)) });
                winner
            }
        };
        // SAFETY: as in `get`.
        unsafe { &*head.add(offset) }
    }
}

impl<T> Drop for Segments<T> {
    fn drop(&mut self) {
        for (segment, head) in self.heads.iter_mut().enumerate() {
            let head = *head.get_mut();
            if !head.is_null() {
                let len = BASE << segment;
                // SAFETY: every published head came from `Box::into_raw` of
                // a `Box<[T]>` of exactly this length.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(head, len)) });
            }
        }
    }
}

/// A value published at most once and then only read — the per-entry cell
/// of the communicator table.
pub(crate) struct OnceBox<T> {
    ptr: AtomicPtr<T>,
    _owns: PhantomData<Box<T>>,
}

impl<T> Default for OnceBox<T> {
    fn default() -> Self {
        Self {
            ptr: AtomicPtr::default(),
            _owns: PhantomData,
        }
    }
}

impl<T> OnceBox<T> {
    /// The published value, if any.
    #[inline]
    pub(crate) fn get(&self) -> Option<&T> {
        let ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer came from `Box::into_raw` in `set` and
        // is freed only when `self` drops.
        (!ptr.is_null()).then(|| unsafe { &*ptr })
    }

    /// Publish `value`. Returns false (dropping `value`) if a value was
    /// already published.
    pub(crate) fn set(&self, value: T) -> bool {
        let fresh = Box::into_raw(Box::new(value));
        match self.ptr.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => true,
            Err(_) => {
                // SAFETY: `fresh` was never published.
                drop(unsafe { Box::from_raw(fresh) });
                false
            }
        }
    }
}

impl<T> Drop for OnceBox<T> {
    fn drop(&mut self) {
        let ptr = *self.ptr.get_mut();
        if !ptr.is_null() {
            // SAFETY: published by `set` from `Box::into_raw`.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_covers_indices_densely() {
        let mut expected = (0, 0);
        for index in 0..10_000 {
            let (segment, offset, len) = locate(index);
            assert_eq!((segment, offset), expected, "index {index}");
            assert_eq!(len, BASE << segment);
            expected = if offset + 1 == len {
                (segment + 1, 0)
            } else {
                (segment, offset + 1)
            };
        }
        let (segment, offset, len) = locate(CAPACITY - 1);
        assert_eq!((segment, offset + 1), (MAX_SEGMENTS - 1, len));
    }

    #[test]
    fn elements_never_move_as_the_table_grows() {
        let table: Segments<std::sync::atomic::AtomicU64> = Segments::default();
        assert!(table.get(0).is_none());
        let first = table.get_or_grow(0) as *const _;
        for index in 0..1_000 {
            table
                .get_or_grow(index)
                .store(index as u64, std::sync::atomic::Ordering::Relaxed);
        }
        assert_eq!(table.get(0).unwrap() as *const _, first);
        for index in 0..1_000 {
            let v = table.get(index).unwrap();
            assert_eq!(v.load(std::sync::atomic::Ordering::Relaxed), index as u64);
        }
        assert!(table.get(CAPACITY).is_none());
    }

    #[test]
    fn once_box_publishes_exactly_once() {
        let cell = OnceBox::default();
        assert!(cell.get().is_none());
        assert!(cell.set(String::from("first")));
        assert!(!cell.set(String::from("second")));
        assert_eq!(cell.get().map(String::as_str), Some("first"));
    }
}
