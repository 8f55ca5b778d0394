//! Indexed priority queues with decrease-key, built from scratch.
//!
//! The optimal-semilightpath algorithm of Liang & Shen reaches its stated
//! `O(k²n + km + kn·log(kn))` bound (Theorem 1) by running Dijkstra's algorithm
//! with the Fibonacci heap of Fredman & Tarjan. This crate provides that heap
//! together with two alternatives, all behind one [`IndexedPriorityQueue`]
//! trait, so the shortest-path solvers in `wdm-core` are generic over the heap
//! and the heap ablation (experiment E9) compares like with like:
//!
//! * [`FibonacciHeap`] — `O(1)` amortized `decrease_key`, `O(log n)` amortized
//!   `pop_min`; the data structure Theorem 1 assumes.
//! * [`BinaryHeap`] — classical indexed binary heap, `O(log n)` everything;
//!   every search of the provisioning engine queues on it.
//! * [`ArrayHeap`] — linear-scan "heap" giving the `O(V²)` Dijkstra the
//!   Chlamtac–Faragó–Zhang baseline is charged with in the paper's comparison.
//!
//! All queues are *indexed*: items are dense `usize` identifiers in
//! `0..capacity`, which is exactly the shape Dijkstra over a compact node
//! numbering needs and keeps every operation allocation-free after
//! construction.
//!
//! # Examples
//!
//! ```
//! use heaps::{FibonacciHeap, IndexedPriorityQueue};
//!
//! let mut heap: FibonacciHeap<u64> = FibonacciHeap::with_capacity(8);
//! heap.push(3, 40);
//! heap.push(5, 10);
//! heap.push(7, 25);
//! heap.decrease_key(3, 5);
//! assert_eq!(heap.pop_min(), Some((3, 5)));
//! assert_eq!(heap.pop_min(), Some((5, 10)));
//! assert_eq!(heap.pop_min(), Some((7, 25)));
//! assert_eq!(heap.pop_min(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod binary;
mod fibonacci;

pub use array::ArrayHeap;
pub use binary::BinaryHeap;
pub use fibonacci::FibonacciHeap;

/// A min-priority queue over dense `usize` items supporting `decrease_key`.
///
/// Items are identifiers in `0..capacity` (fixed at construction). At most one
/// entry per item may be present at a time; re-inserting an item after it has
/// been popped is allowed. This is the exact interface Dijkstra's algorithm
/// needs, and it is implemented by every heap in this crate.
///
/// # Examples
///
/// ```
/// use heaps::{BinaryHeap, IndexedPriorityQueue};
///
/// fn drain<Q: IndexedPriorityQueue<u32>>(mut q: Q) -> Vec<usize> {
///     q.push(0, 9);
///     q.push(1, 3);
///     q.push(2, 7);
///     q.decrease_key(0, 1);
///     let mut order = Vec::new();
///     while let Some((item, _)) = q.pop_min() {
///         order.push(item);
///     }
///     order
/// }
///
/// assert_eq!(drain(BinaryHeap::<u32>::with_capacity(3)), vec![0, 1, 2]);
/// ```
pub trait IndexedPriorityQueue<P: Ord + Clone> {
    /// Creates an empty queue able to hold items `0..capacity`.
    fn with_capacity(capacity: usize) -> Self;

    /// Number of items currently in the queue.
    fn len(&self) -> usize;

    /// Returns `true` when the queue holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item capacity this queue was created with (items must be `< capacity`).
    fn capacity(&self) -> usize;

    /// Returns `true` if `item` is currently queued.
    fn contains(&self, item: usize) -> bool;

    /// Returns the current priority of `item`, if queued.
    fn priority(&self, item: usize) -> Option<&P>;

    /// Inserts `item` with `priority`.
    ///
    /// # Panics
    ///
    /// Panics if `item >= capacity` or `item` is already queued.
    fn push(&mut self, item: usize, priority: P);

    /// Lowers the priority of a queued `item` to `priority`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is not queued or `priority` is greater than the
    /// item's current priority. Equal priorities are accepted (no-op).
    fn decrease_key(&mut self, item: usize, priority: P);

    /// Removes and returns the item with the smallest priority.
    ///
    /// Ties are broken arbitrarily (implementation-specific).
    fn pop_min(&mut self) -> Option<(usize, P)>;

    /// Returns the item with the smallest priority without removing it.
    fn peek_min(&self) -> Option<(usize, &P)>;

    /// Removes all items, keeping the capacity.
    fn clear(&mut self);

    /// Pushes `item` if absent, otherwise decreases its key when `priority`
    /// improves on the stored one. Returns `true` if the queue changed.
    ///
    /// This is the single call sites in Dijkstra's relaxation need.
    fn push_or_decrease(&mut self, item: usize, priority: P) -> bool {
        match self.priority(item) {
            None => {
                self.push(item, priority);
                true
            }
            Some(current) if priority < *current => {
                self.decrease_key(item, priority);
                true
            }
            Some(_) => false,
        }
    }
}

/// Which heap implementation a solver should use.
///
/// Exists so higher-level APIs (and the E9 ablation) can select the
/// queue at run time without being generic themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeapKind {
    /// [`FibonacciHeap`]; the Theorem-1 choice and the default.
    #[default]
    Fibonacci,
    /// [`BinaryHeap`].
    Binary,
    /// [`ArrayHeap`] (linear scan; the CFZ-era baseline).
    Array,
}

impl HeapKind {
    /// All heap kinds, for sweeps and ablations.
    pub const ALL: [HeapKind; 3] = [HeapKind::Fibonacci, HeapKind::Binary, HeapKind::Array];

    /// Short human-readable name (`"fibonacci"`, `"binary"`, `"array"`).
    pub fn name(self) -> &'static str {
        match self {
            HeapKind::Fibonacci => "fibonacci",
            HeapKind::Binary => "binary",
            HeapKind::Array => "array",
        }
    }
}

impl std::fmt::Display for HeapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: IndexedPriorityQueue<u64>>() {
        let mut q = Q::with_capacity(16);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 16);
        q.push(4, 100);
        q.push(9, 50);
        assert_eq!(q.len(), 2);
        assert!(q.contains(4));
        assert!(!q.contains(0));
        assert_eq!(q.priority(4), Some(&100));
        assert_eq!(q.peek_min(), Some((9, &50)));
        assert!(q.push_or_decrease(4, 10));
        assert!(!q.push_or_decrease(4, 10_000));
        assert_eq!(q.pop_min(), Some((4, 10)));
        assert_eq!(q.pop_min(), Some((9, 50)));
        assert_eq!(q.pop_min(), None);
        // Re-insertion after pop is allowed.
        q.push(4, 7);
        assert_eq!(q.pop_min(), Some((4, 7)));
        q.push(1, 3);
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(1));
    }

    #[test]
    fn all_heaps_satisfy_contract() {
        exercise::<FibonacciHeap<u64>>();
        exercise::<BinaryHeap<u64>>();
        exercise::<ArrayHeap<u64>>();
    }

    #[test]
    fn heap_kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = HeapKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), HeapKind::ALL.len());
        assert_eq!(HeapKind::default(), HeapKind::Fibonacci);
        assert_eq!(HeapKind::Fibonacci.to_string(), "fibonacci");
    }
}
