//! Atomics with model-checking hooks.
//!
//! Each type is a `repr(transparent)` wrapper over its `std` counterpart.
//! Without the `model` feature every method is a direct inlined call to
//! the `std` atomic — zero overhead. With `model` enabled, a thread that
//! belongs to a model execution yields to the scheduler immediately
//! *before* performing the operation, which makes every atomic access a
//! decision point of the interleaving exploration. The operation itself
//! is then performed on the real atomic: because model threads are
//! serialized, the sequence of operations *is* the schedule, giving the
//! checker sequentially-consistent semantics regardless of the `Ordering`
//! argument (weak-memory effects are out of scope — see DESIGN.md §10).

pub use std::sync::atomic::Ordering;

#[inline]
fn sync_op() {
    #[cfg(feature = "model")]
    crate::model::yield_if_modeled();
}

macro_rules! atomic_int {
    ($name:ident, $std:ty, $int:ty) => {
        /// Model-aware drop-in for the `std` atomic of the same name.
        #[derive(Default)]
        #[repr(transparent)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// New atomic holding `value`.
            pub const fn new(value: $int) -> Self {
                Self {
                    inner: <$std>::new(value),
                }
            }

            /// Consume and return the value.
            pub fn into_inner(self) -> $int {
                self.inner.into_inner()
            }

            /// Direct access through an exclusive borrow (no concurrency,
            /// so no model decision point).
            pub fn get_mut(&mut self) -> &mut $int {
                self.inner.get_mut()
            }

            /// Atomic load.
            #[inline]
            pub fn load(&self, order: Ordering) -> $int {
                sync_op();
                self.inner.load(order)
            }

            /// Atomic store.
            #[inline]
            pub fn store(&self, value: $int, order: Ordering) {
                sync_op();
                self.inner.store(value, order)
            }

            /// Atomic swap.
            #[inline]
            pub fn swap(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.swap(value, order)
            }

            /// Atomic add, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.fetch_add(value, order)
            }

            /// Atomic subtract, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.fetch_sub(value, order)
            }

            /// Atomic bitwise or, returning the previous value.
            #[inline]
            pub fn fetch_or(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.fetch_or(value, order)
            }

            /// Atomic bitwise and, returning the previous value.
            #[inline]
            pub fn fetch_and(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.fetch_and(value, order)
            }

            /// Atomic maximum, returning the previous value.
            #[inline]
            pub fn fetch_max(&self, value: $int, order: Ordering) -> $int {
                sync_op();
                self.inner.fetch_max(value, order)
            }

            /// Atomic compare-exchange.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                sync_op();
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Atomic compare-exchange allowed to fail spuriously.
            ///
            /// Under the model backend the operation is performed on the
            /// real atomic by a serialized thread, so it never *actually*
            /// fails spuriously — the checker explores CAS races through
            /// scheduling, not through spurious failure injection.
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                sync_op();
                self.inner
                    .compare_exchange_weak(current, new, success, failure)
            }

            /// Atomic read-modify-write via a closure.
            #[inline]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$int, $int>
            where
                F: FnMut($int) -> Option<$int>,
            {
                sync_op();
                self.inner.fetch_update(set_order, fetch_order, f)
            }
        }

        impl From<$int> for $name {
            fn from(value: $int) -> Self {
                Self::new(value)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

atomic_int!(AtomicU8, std::sync::atomic::AtomicU8, u8);
atomic_int!(AtomicU32, std::sync::atomic::AtomicU32, u32);
atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Model-aware drop-in for `std::sync::atomic::AtomicBool`.
#[derive(Default)]
#[repr(transparent)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// New atomic flag holding `value`.
    pub const fn new(value: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Consume and return the value.
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> bool {
        sync_op();
        self.inner.load(order)
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, value: bool, order: Ordering) {
        sync_op();
        self.inner.store(value, order)
    }

    /// Atomic swap.
    #[inline]
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        sync_op();
        self.inner.swap(value, order)
    }

    /// Atomic compare-exchange.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        sync_op();
        self.inner.compare_exchange(current, new, success, failure)
    }
}

impl From<bool> for AtomicBool {
    fn from(value: bool) -> Self {
        Self::new(value)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Model-aware drop-in for `std::sync::atomic::AtomicPtr`.
#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    /// New atomic pointer holding `ptr`.
    pub const fn new(ptr: *mut T) -> Self {
        Self {
            inner: std::sync::atomic::AtomicPtr::new(ptr),
        }
    }

    /// Direct access through an exclusive borrow (no concurrency, so no
    /// model decision point).
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        sync_op();
        self.inner.load(order)
    }

    /// Atomic compare-exchange.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        sync_op();
        self.inner.compare_exchange(current, new, success, failure)
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}
