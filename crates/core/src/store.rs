//! The on-demand executor's node store: key → node, laid out by color.
//!
//! [`DynamicExecutor`](crate::DynamicExecutor) looks a node up once per
//! dependence edge, so the store is on the executor's hottest path — and
//! it is scheduler metadata, which should be as local as the data the
//! scheduler places. Three choices follow from that:
//!
//! * **Shards follow the color.** The table is [`GROUPS`] groups of
//!   [`WAYS`] shards; a key's group is its color's (wrapping when there
//!   are more colors than groups), and only the way within the group
//!   comes from the key's hash. A worker running nodes of its own color,
//!   whose predecessors mostly share that color, takes locks, probes
//!   buckets and touches node memory that no other core writes. This is
//!   why [`TaskSpec::color`](crate::TaskSpec::color) must be a pure
//!   function of the key: a key whose color changed would be looked up in
//!   a different group and created twice.
//! * **One cheap hash per lookup.** Keys are hashed once with a
//!   multiplicative hasher; the shard's index maps that 64-bit hash
//!   straight to the node (keys with equal hashes are chained through the
//!   nodes), so the key is stored once and compared once. The hash is not
//!   keyed: task keys come from the program's own [`TaskSpec`], not from
//!   outside it.
//! * **Nodes live in per-shard chunk arenas** and are referred to by
//!   [`NodeRef`], a plain pointer. A chunk never reallocates, so a node
//!   stays where it was created until the table — which lives exactly as
//!   long as the run — is dropped; there is no per-node allocation or
//!   reference count.
//! * **Registration slots live in per-worker chunk arenas.** A scanned
//!   node needs one [`Link`] per predecessor, pushed onto that
//!   predecessor's successor list. The worker that scans the node takes
//!   them, contiguous, from its own arena (one per worker, sized from the
//!   pool, touched by no other thread and so taken without a lock); a
//!   scan wider than a chunk gets a chunk of its own. The table owns the
//!   arenas, so a slot, like a node, stays in place until the run ends:
//!   it is never freed on the thread that drains it, and discovery
//!   allocates per chunk, not per node.
//!
//! The table's methods are the only way to create or follow a
//! [`NodeRef`] or to spend a registration [`Slot`]; the invariant they
//! rest on is that nodes and slots outlive every task of the run, because
//! the run's state owns the table and is dropped only after the pool's
//! job barrier. The one `unsafe fn`, `begin_scan`, adds what a lock would
//! otherwise enforce: its caller is the scanning worker's own thread.
//!
//! [`TaskSpec`]: crate::TaskSpec

use crate::join::{Drain, JoinCounter, Link, SuccessorList};
use crossbeam_utils::CachePadded;
use nabbitc_color::Color;
use nabbitc_runtime::sync::RwLock;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ptr::NonNull;

/// Shard groups, one per color (colors beyond wrap around).
const GROUPS: usize = 32;
/// Shards per group, picked by key hash: workers that share a color (or a
/// monochrome graph) still spread over this many locks.
const WAYS: usize = 8;

/// Values in an arena's first chunk; each further chunk doubles up to
/// [`MAX_CHUNK`], so a shard holding a handful of nodes costs a few KiB
/// and a large one allocates rarely.
const FIRST_CHUNK: usize = 32;
const MAX_CHUNK: usize = 1024;

/// A task discovered by the run.
pub(crate) struct Node<K> {
    pub(crate) key: K,
    pub(crate) color: Color,
    /// Readiness arbiter; armed by [`NodeTable::begin_scan`].
    pub(crate) join: JoinCounter,
    /// Who waits for this node; closed once it is computed.
    succ: SuccessorList<NodeRef<K>>,
    /// The previously created node of this shard whose key has the same
    /// 64-bit hash, if any.
    same_hash: Option<NodeRef<K>>,
}

impl<K> Node<K> {
    /// Whether the node has been computed (and its waiters taken).
    pub(crate) fn is_computed(&self) -> bool {
        self.succ.is_closed()
    }
}

/// Handle to a [`Node`] of one [`NodeTable`]; only that table creates and
/// follows it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct NodeRef<K>(NonNull<Node<K>>);

// By hand: the derives would ask for `K: Copy`.
impl<K> Clone for NodeRef<K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for NodeRef<K> {}

// SAFETY: a `NodeRef` is a shared reference to a `Node<K>` in all but
// lifetime (`NodeTable::node` is the only dereference and yields `&Node`),
// so it may cross threads exactly when `&Node<K>` may. Every field of
// `Node` other than the key is `Sync` by construction — `Color` is plain
// data, `JoinCounter` and `SuccessorList` are atomics, `same_hash` is a
// `NodeRef` — which leaves `K: Sync`. (The links a successor list points
// to are the table's, made of an atomic and a `NodeRef`.)
unsafe impl<K: Sync> Send for NodeRef<K> {}
// SAFETY: as above; `&NodeRef` gives nothing `NodeRef` (it is `Copy`) does not.
unsafe impl<K: Sync> Sync for NodeRef<K> {}

/// Fixed-capacity chunks: a value, once pushed, never moves.
struct Arena<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Arena<T> {
    const fn new() -> Self {
        Arena { chunks: Vec::new() }
    }

    /// The chunk to append `len` values to: the last one if they fit, else
    /// a new one of the next size — or of exactly `len`, if that is more.
    fn room_for(&mut self, len: usize) -> &mut Vec<T> {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.capacity() - c.len() < len)
        {
            let size = (FIRST_CHUNK << self.chunks.len().min(16)).min(MAX_CHUNK);
            self.chunks.push(Vec::with_capacity(size.max(len)));
        }
        self.chunks.last_mut().expect("a chunk was just ensured")
    }

    fn alloc(&mut self, value: T) -> NonNull<T> {
        let chunk = self.room_for(1);
        // Below capacity, so this push cannot reallocate the chunk.
        chunk.push(value);
        NonNull::from(chunk.last().expect("just pushed"))
    }

    /// `len` values made by `make`, contiguous in one chunk.
    fn alloc_slice(&mut self, len: usize, make: impl FnMut() -> T) -> NonNull<[T]> {
        let chunk = self.room_for(len);
        let start = chunk.len();
        // Within capacity, so this cannot reallocate the chunk either.
        chunk.extend(std::iter::repeat_with(make).take(len));
        NonNull::from(&chunk[start..])
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

struct Shard<K> {
    /// Key hash → newest node with that hash (older ones via `same_hash`).
    index: HashMap<u64, NodeRef<K>, BuildHasherDefault<Prehashed>>,
    arena: Arena<Node<K>>,
}

/// Concurrent node table (key → node): the paper's "atomically attempt to
/// create a predecessor with key pkey".
pub(crate) struct NodeTable<K> {
    shards: Box<[CachePadded<RwLock<Shard<K>>>]>,
    /// Registration slots, one arena per worker: only the scanning worker
    /// touches its own.
    slots: Box<[CachePadded<WorkerOwned<SlotArena<K>>>]>,
}

/// One worker's registration slots.
type SlotArena<K> = Arena<Link<NodeRef<K>>>;

/// A value only one worker's thread ever touches, shared through the
/// table without a lock.
struct WorkerOwned<T>(UnsafeCell<T>);

// SAFETY: the value is only reached through `NodeTable::begin_scan`,
// whose caller is the one thread of the worker that owns it; sending the
// table to another thread moves at most ownership of `T`, hence `T: Send`.
unsafe impl<T: Send> Sync for WorkerOwned<T> {}

/// The registration slots of one predecessor scan, one per predecessor
/// in list order; each is handed out once.
pub(crate) struct Scan<'t, K>(std::slice::Iter<'t, Link<NodeRef<K>>>);

impl<'t, K> Iterator for Scan<'t, K> {
    type Item = Slot<'t, K>;

    fn next(&mut self) -> Option<Slot<'t, K>> {
        self.0.next().map(Slot)
    }
}

/// One registration slot, spent by [`NodeTable::register`]. Neither
/// `Copy` nor `Clone`: a slot is registered at most once by construction.
pub(crate) struct Slot<'t, K>(&'t Link<NodeRef<K>>);

impl<K: Eq + Hash + Clone> NodeTable<K> {
    /// An empty table for a run on `workers` workers.
    pub(crate) fn new(workers: usize) -> Self {
        NodeTable {
            shards: (0..GROUPS * WAYS)
                .map(|_| {
                    CachePadded::new(RwLock::new(Shard {
                        index: HashMap::default(),
                        arena: Arena::new(),
                    }))
                })
                .collect(),
            slots: (0..workers)
                .map(|_| CachePadded::new(WorkerOwned(UnsafeCell::new(Arena::new()))))
                .collect(),
        }
    }

    /// The node for `key`, created if this is the first request for it.
    /// Returns `(node, created_by_us)`; among racing callers exactly one
    /// creates, and everyone gets that creator's node.
    ///
    /// One write lock per call, found or created: a read probe first would
    /// save nothing on the found path (a read lock is as many atomic
    /// read-modify-writes as a write lock) and double the created one.
    pub(crate) fn get_or_create(&self, key: &K, color: Color) -> (NodeRef<K>, bool) {
        let hash = hash_of(key);
        let mut shard = self.shards[shard_of(color, hash)].write();
        if let Some(found) = self.find(&shard, hash, key) {
            return (found, false);
        }
        let same_hash = shard.index.get(&hash).copied();
        let node = NodeRef(shard.arena.alloc(Node {
            key: key.clone(),
            color,
            join: JoinCounter::new(),
            succ: SuccessorList::new(),
            same_hash,
        }));
        shard.index.insert(hash, node);
        (node, true)
    }

    fn find(&self, shard: &Shard<K>, hash: u64, key: &K) -> Option<NodeRef<K>> {
        let mut candidate = shard.index.get(&hash).copied();
        while let Some(found) = candidate {
            let node = self.node(found);
            if node.key == *key {
                return Some(found);
            }
            candidate = node.same_hash;
        }
        None
    }
}

impl<K> NodeTable<K> {
    /// Follows a handle this table gave out.
    pub(crate) fn node(&self, node: NodeRef<K>) -> &Node<K> {
        // SAFETY: `NodeRef`s are created only by `get_or_create`, pointing
        // into a shard's arena, whose chunks never reallocate and are
        // freed only when the table is dropped — which `&self` rules out
        // for the lifetime of the returned reference. Handles do not
        // outlive their table: the run's state owns it and every task
        // holding a handle has finished before that state is dropped.
        // Nodes are never handed out mutably.
        unsafe { node.0.as_ref() }
    }

    /// Nodes created so far (exact once the run is quiescent).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().arena.len()).sum()
    }

    /// Starts `waiter`'s predecessor scan over `preds` dependences on
    /// `worker`: arms its join counter and hands out its registration
    /// slots, taken from `worker`'s slot arena.
    ///
    /// # Panics
    ///
    /// If `waiter` was scanned before: a node is scanned exactly once.
    ///
    /// # Safety
    ///
    /// The caller must be `worker`'s own thread — no other thread may
    /// scan on `worker`'s arena while this call runs.
    pub(crate) unsafe fn begin_scan(
        &self,
        waiter: NodeRef<K>,
        preds: usize,
        worker: usize,
    ) -> Scan<'_, K> {
        self.node(waiter).join.begin_scan(preds);
        // SAFETY: by this function's contract the calling thread is the
        // only one to reach `worker`'s arena, and the `&mut` ends with
        // this statement.
        let arena = unsafe { &mut *self.slots[worker].0.get() };
        let slots = arena.alloc_slice(preds, || Link::new(waiter));
        // SAFETY: the slice lies in a chunk of a slot arena, which never
        // reallocates and is freed only when the table is dropped — which
        // `&self` rules out for the returned lifetime. The arena hands out
        // each value once, so nothing else refers to these links, and they
        // are only ever read through shared references.
        Scan(unsafe { slots.as_ref() }.iter())
    }

    /// Registers `slot`'s waiter for `pred`'s completion. `false` means
    /// `pred` is already computed.
    pub(crate) fn register(&self, slot: Slot<'_, K>, pred: NodeRef<K>) -> bool {
        // SAFETY: the slot came from this table's `begin_scan`, the only
        // maker of slots, so its link stays in place until the table is
        // dropped, after every task of the run — and with it `pred`'s list
        // and any drain of it — is gone. It is registered once: its arena
        // handed it to one scan, the scan yielded it as one `Slot`, and a
        // `Slot` cannot be copied and is consumed here.
        unsafe { self.node(pred).succ.register(slot.0) }
    }

    /// Marks `node` computed and hands over the nodes waiting for it.
    pub(crate) fn complete(&self, node: NodeRef<K>) -> Drain<'_, NodeRef<K>> {
        self.node(node).succ.close()
    }
}

fn shard_of(color: Color, hash: u64) -> usize {
    // The way comes from the hash's upper half: the index's buckets use
    // the low bits and its control bytes the top seven.
    (color.0 as usize % GROUPS) * WAYS + (hash >> 32) as usize % WAYS
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut hasher = KeyHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Multiplicative (Fx-style) hasher: one rotate-xor-multiply per word.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v.into());
    }
    fn write_u16(&mut self, v: u16) {
        self.add(v.into());
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the input's low bits; fold
        // the well-mixed upper half down for the index's bucket choice.
        self.0 ^ (self.0 >> 32)
    }
}

/// Hasher for the shard index, whose keys already are hashes.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the shard index is keyed by u64 hashes only");
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(all(test, not(nabbitc_check)))]
mod tests {
    use super::*;

    /// A key type whose every value hashes alike.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(u32);
    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(7);
        }
    }

    #[test]
    fn equal_hashes_with_different_colors_land_in_different_shards() {
        assert_eq!(hash_of(&Colliding(1)), hash_of(&Colliding(2)));
        let hash = hash_of(&Colliding(1));
        assert_ne!(shard_of(Color(0), hash), shard_of(Color(1), hash));
        // Colors beyond the group count wrap onto an earlier group.
        assert_eq!(
            shard_of(Color(1), hash),
            shard_of(Color(1 + GROUPS as u16), hash)
        );
        // Within a color, the hash spreads keys over the group's ways.
        let ways: std::collections::HashSet<usize> = (0..1000u32)
            .map(|k| shard_of(Color(3), hash_of(&k)))
            .collect();
        assert_eq!(ways.len(), WAYS);
        assert!(ways.iter().all(|s| s / WAYS == 3));
    }

    #[test]
    fn every_later_caller_gets_the_first_creators_node() {
        let table = NodeTable::new(1);
        let (a, created) = table.get_or_create(&Colliding(1), Color(0));
        assert!(created);
        // Same hash, same shard, different key: a node of its own.
        let (b, created) = table.get_or_create(&Colliding(2), Color(0));
        assert!(created);
        assert_ne!(a, b);
        for _ in 0..3 {
            assert_eq!(table.get_or_create(&Colliding(1), Color(0)), (a, false));
            assert_eq!(table.get_or_create(&Colliding(2), Color(0)), (b, false));
        }
        assert_eq!(table.node(a).key, Colliding(1));
        assert_eq!(table.node(b).key, Colliding(2));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn racing_creators_agree_on_one_node_per_key() {
        const KEYS: u32 = 5_000;
        let table = NodeTable::new(1);
        let per_thread: Vec<Vec<(NodeRef<u32>, bool)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..KEYS)
                            .map(|k| table.get_or_create(&k, Color((k % 5) as u16)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("creator panicked"))
                .collect()
        });
        assert_eq!(table.len(), KEYS as usize);
        for k in 0..KEYS as usize {
            let node = per_thread[0][k].0;
            assert_eq!(table.node(node).key, k as u32);
            assert!(per_thread.iter().all(|t| t[k].0 == node));
            let creators = per_thread.iter().filter(|t| t[k].1).count();
            assert_eq!(creators, 1, "key {k}");
        }
    }

    #[test]
    fn nodes_stay_put_while_their_shard_grows() {
        let table = NodeTable::new(1);
        let refs: Vec<NodeRef<u32>> = (0..20_000u32)
            .map(|k| table.get_or_create(&k, Color(0)).0)
            .collect();
        for (k, &r) in refs.iter().enumerate() {
            assert_eq!(table.node(r).key, k as u32);
            assert_eq!(table.get_or_create(&(k as u32), Color(0)), (r, false));
        }
    }

    #[test]
    fn registration_and_completion_meet_exactly_once_per_edge() {
        let table = NodeTable::new(1);
        let (pred, _) = table.get_or_create(&0u32, Color(0));
        let (early, _) = table.get_or_create(&1u32, Color(1));
        let (late, _) = table.get_or_create(&2u32, Color(2));
        // `early` lists `pred` twice: two slots, two notifications.
        let slots: Vec<_> = scan(&table, early, 2, 0).collect();
        assert_eq!(slots.len(), 2);
        for slot in slots {
            assert!(table.register(slot, pred));
        }
        assert!(!table.node(pred).is_computed());
        assert_eq!(table.complete(pred).collect::<Vec<_>>(), vec![early; 2]);
        assert!(table.node(pred).is_computed());
        let mut slots = scan(&table, late, 1, 0);
        assert!(!table.register(slots.next().expect("one slot"), pred));
        assert!(slots.next().is_none());
    }

    /// `begin_scan` from the test's one thread, which plays every worker
    /// in turn.
    fn scan<'t>(
        table: &'t NodeTable<u32>,
        waiter: NodeRef<u32>,
        preds: usize,
        worker: usize,
    ) -> Scan<'t, u32> {
        // SAFETY: the tests scan from one thread only, so no two scans on
        // one worker's arena overlap.
        unsafe { table.begin_scan(waiter, preds, worker) }
    }

    /// Where `slot`'s link lives.
    fn address(slot: &Slot<'_, u32>) -> usize {
        slot.0 as *const Link<NodeRef<u32>> as usize
    }

    /// Scans `waiter` over `preds` dependences on `worker` and registers
    /// every slot with `pred`; returns where the slots live.
    fn scan_onto(
        table: &NodeTable<u32>,
        waiter: NodeRef<u32>,
        preds: usize,
        worker: usize,
        pred: NodeRef<u32>,
    ) -> Vec<usize> {
        scan(table, waiter, preds, worker)
            .map(|slot| {
                let at = address(&slot);
                assert!(table.register(slot, pred));
                at
            })
            .collect()
    }

    fn contiguous(addresses: &[usize]) -> bool {
        let step = std::mem::size_of::<Link<NodeRef<u32>>>();
        addresses.windows(2).all(|w| w[1] == w[0] + step)
    }

    #[test]
    fn a_scan_wider_than_a_chunk_gets_one_contiguous_slice() {
        const WIDE: usize = 5 * MAX_CHUNK + 3;
        let table = NodeTable::new(1);
        let [pred, small, wide] = [0u32, 1, 2].map(|k| table.get_or_create(&k, Color(0)).0);
        // A partly used chunk first, which the wide scan does not fit in.
        let small_slots = scan_onto(&table, small, 3, 0, pred);
        let wide_slots = scan_onto(&table, wide, WIDE, 0, pred);
        assert_eq!(wide_slots.len(), WIDE);
        assert!(contiguous(&small_slots) && contiguous(&wide_slots));
        assert!(small_slots.iter().all(|a| !wide_slots.contains(a)));
        // Newest registration first: every wide slot, then the small ones.
        let mut expected = vec![wide; WIDE];
        expected.extend([small; 3]);
        assert_eq!(table.complete(pred).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn scans_across_chunk_boundaries_each_get_fresh_slots() {
        // Widths 1..=40 against first chunks of 32, 64, 128, …: many scans
        // do not fit in what is left of the current chunk.
        let table = NodeTable::new(2);
        let (pred, _) = table.get_or_create(&0u32, Color(0));
        let mut seen = std::collections::HashSet::new();
        let mut registered = 0;
        for k in 1..=400u32 {
            let (waiter, _) = table.get_or_create(&k, Color(0));
            let width = (k as usize - 1) % 40 + 1;
            let slots = scan_onto(&table, waiter, width, (k % 2) as usize, pred);
            assert_eq!(slots.len(), width);
            assert!(contiguous(&slots), "scan {k}");
            for at in slots {
                assert!(seen.insert(at), "scan {k} was handed a slot twice");
            }
            registered += width;
        }
        let mut drained: HashMap<u32, usize> = HashMap::new();
        for waiter in table.complete(pred) {
            *drained.entry(table.node(waiter).key).or_default() += 1;
        }
        assert_eq!(drained.values().sum::<usize>(), registered);
        for k in 1..=400u32 {
            assert_eq!(drained[&k], (k as usize - 1) % 40 + 1, "scan {k}");
        }
    }

    #[test]
    fn slots_stay_put_while_their_arena_grows() {
        let table = NodeTable::new(1);
        let [pred, first, other] = [0u32, 1, 2].map(|k| table.get_or_create(&k, Color(0)).0);
        // Hold the first scan's slots, unregistered, while 20 000 more
        // are handed out on the same worker.
        let held: Vec<_> = scan(&table, first, 4, 0).collect();
        let before: Vec<usize> = held.iter().map(address).collect();
        for k in 3..5_003u32 {
            let (waiter, _) = table.get_or_create(&k, Color(0));
            scan_onto(&table, waiter, 4, 0, other);
        }
        assert_eq!(held.iter().map(address).collect::<Vec<_>>(), before);
        for slot in held {
            assert!(table.register(slot, pred));
        }
        assert_eq!(table.complete(pred).collect::<Vec<_>>(), vec![first; 4]);
    }
}
