//! Property-based tests: every heap implementation must behave exactly like a
//! simple reference priority queue under arbitrary operation sequences.

use heaps::{ArrayHeap, BinaryHeap, FibonacciHeap, IndexedPriorityQueue};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference model: ordered set of (priority, item).
#[derive(Default)]
struct Model {
    set: BTreeSet<(u64, usize)>,
    prio: Vec<Option<u64>>,
}

impl Model {
    fn with_capacity(n: usize) -> Self {
        Model {
            set: BTreeSet::new(),
            prio: vec![None; n],
        }
    }

    fn contains(&self, item: usize) -> bool {
        self.prio[item].is_some()
    }

    fn push(&mut self, item: usize, p: u64) {
        assert!(self.prio[item].is_none());
        self.prio[item] = Some(p);
        self.set.insert((p, item));
    }

    fn decrease_key(&mut self, item: usize, p: u64) {
        let old = self.prio[item].expect("queued");
        assert!(p <= old);
        self.set.remove(&(old, item));
        self.set.insert((p, item));
        self.prio[item] = Some(p);
    }

    /// Removes a specific (priority, item) pair; used to mirror the heap's
    /// tie-breaking choice.
    fn remove(&mut self, item: usize, p: u64) {
        assert_eq!(
            self.prio[item],
            Some(p),
            "heap popped a pair the model lacks"
        );
        assert!(
            self.set.iter().next().map(|&(mp, _)| mp) == Some(p),
            "heap popped non-minimal priority {p}"
        );
        self.set.remove(&(p, item));
        self.prio[item] = None;
    }

    fn clear(&mut self) {
        self.set.clear();
        self.prio.fill(None);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(usize, u64),
    DecreaseKey(usize, u64),
    PopMin,
    /// Empties the queue with items still in it; later ops reuse it, as
    /// a targeted search that stops at its target leaves its queue for
    /// the next one.
    Clear,
}

fn op_strategy(universe: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..universe, 0u64..1000).prop_map(|(i, p)| Op::Push(i, p)),
        8 => (0..universe, 0u64..1000).prop_map(|(i, p)| Op::DecreaseKey(i, p)),
        8 => Just(Op::PopMin),
        1 => Just(Op::Clear),
    ]
}

fn run_against_model<Q: IndexedPriorityQueue<u64>>(ops: &[Op], universe: usize) {
    let mut heap = Q::with_capacity(universe);
    let mut model = Model::with_capacity(universe);
    for op in ops {
        match *op {
            Op::Push(item, p) => {
                if !model.contains(item) {
                    heap.push(item, p);
                    model.push(item, p);
                }
            }
            Op::DecreaseKey(item, p) => {
                if let Some(old) = model.prio[item] {
                    let p = p.min(old);
                    heap.decrease_key(item, p);
                    model.decrease_key(item, p);
                }
            }
            Op::PopMin => match heap.pop_min() {
                Some((item, p)) => model.remove(item, p),
                None => assert!(model.set.is_empty()),
            },
            Op::Clear => {
                heap.clear();
                model.clear();
                assert!((0..universe).all(|i| !heap.contains(i)));
            }
        }
        assert_eq!(heap.len(), model.set.len());
        if let Some((_, p)) = heap.peek_min() {
            let &(mp, _) = model.set.iter().next().expect("model non-empty");
            assert_eq!(*p, mp, "peek_min priority mismatch");
        }
    }
    // Drain: priorities must come out in the model's sorted order.
    while let Some((item, p)) = heap.pop_min() {
        model.remove(item, p);
    }
    assert!(model.set.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fibonacci_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<FibonacciHeap<u64>>(&ops, 24);
    }

    #[test]
    fn binary_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<BinaryHeap<u64>>(&ops, 24);
    }

    #[test]
    fn array_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<ArrayHeap<u64>>(&ops, 24);
    }

    #[test]
    fn heaps_agree_on_heapsort(mut priorities in prop::collection::vec(0u64..10_000, 1..128)) {
        let n = priorities.len();
        let mut fib: FibonacciHeap<u64> = FibonacciHeap::with_capacity(n);
        let mut bin: BinaryHeap<u64> = BinaryHeap::with_capacity(n);
        let mut arr: ArrayHeap<u64> = ArrayHeap::with_capacity(n);
        for (i, &p) in priorities.iter().enumerate() {
            fib.push(i, p);
            bin.push(i, p);
            arr.push(i, p);
        }
        priorities.sort_unstable();
        for &expect in &priorities {
            assert_eq!(fib.pop_min().map(|(_, p)| p), Some(expect));
            assert_eq!(bin.pop_min().map(|(_, p)| p), Some(expect));
            assert_eq!(arr.pop_min().map(|(_, p)| p), Some(expect));
        }
    }
}
