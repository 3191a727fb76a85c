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
//!
//! The table's safe methods are the only way to create or follow a
//! [`NodeRef`]; the invariant they rest on is that nodes and their link
//! slots outlive every task of the run, because the run's state owns the
//! table and is dropped only after the pool's job barrier.
//!
//! [`TaskSpec`]: crate::TaskSpec

use crate::join::{Drain, JoinCounter, Link, SuccessorList};
use crossbeam_utils::CachePadded;
use nabbitc_color::Color;
use nabbitc_runtime::sync::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ptr::NonNull;
use std::sync::OnceLock;

/// Shard groups, one per color (colors beyond wrap around).
const GROUPS: usize = 32;
/// Shards per group, picked by key hash: workers that share a color (or a
/// monochrome graph) still spread over this many locks.
const WAYS: usize = 8;

/// Nodes in a shard's first chunk; each further chunk doubles up to
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
    /// This node's registration slots, one per predecessor, allocated by
    /// the one worker that initialises it.
    links: OnceLock<Box<[Link<NodeRef<K>>]>>,
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
// data, `JoinCounter` and `SuccessorList` are atomics, the `OnceLock`
// holds links made of an atomic and a `NodeRef` — which leaves `K: Sync`.
unsafe impl<K: Sync> Send for NodeRef<K> {}
// SAFETY: as above; `&NodeRef` gives nothing `NodeRef` (it is `Copy`) does not.
unsafe impl<K: Sync> Sync for NodeRef<K> {}

/// Fixed-capacity chunks: a value, once pushed, never moves.
struct Arena<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Arena<T> {
    fn alloc(&mut self, value: T) -> NonNull<T> {
        if self.chunks.last().is_none_or(|c| c.len() == c.capacity()) {
            let capacity = (FIRST_CHUNK << self.chunks.len().min(16)).min(MAX_CHUNK);
            self.chunks.push(Vec::with_capacity(capacity));
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        // Below capacity, so this push cannot reallocate the chunk.
        chunk.push(value);
        NonNull::from(chunk.last().expect("just pushed"))
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
}

impl<K: Eq + Hash + Clone> NodeTable<K> {
    pub(crate) fn new() -> Self {
        NodeTable {
            shards: (0..GROUPS * WAYS)
                .map(|_| {
                    CachePadded::new(RwLock::new(Shard {
                        index: HashMap::default(),
                        arena: Arena { chunks: Vec::new() },
                    }))
                })
                .collect(),
        }
    }

    /// The node for `key`, created if this is the first request for it.
    /// Returns `(node, created_by_us)`; among racing callers exactly one
    /// creates, and everyone gets that creator's node.
    pub(crate) fn get_or_create(&self, key: &K, color: Color) -> (NodeRef<K>, bool) {
        let hash = hash_of(key);
        let shard = &self.shards[shard_of(color, hash)];
        let found = self.find(&shard.read(), hash, key);
        if let Some(found) = found {
            return (found, false);
        }
        let mut shard = shard.write();
        if let Some(found) = self.find(&shard, hash, key) {
            return (found, false);
        }
        let same_hash = shard.index.get(&hash).copied();
        let node = NodeRef(shard.arena.alloc(Node {
            key: key.clone(),
            color,
            join: JoinCounter::new(),
            succ: SuccessorList::new(),
            links: OnceLock::new(),
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

    /// Starts `waiter`'s predecessor scan over `preds` dependences:
    /// allocates its registration slots and arms its join counter. Called
    /// once per node, by the worker that initialises it.
    pub(crate) fn begin_scan(&self, waiter: NodeRef<K>, preds: usize) {
        let node = self.node(waiter);
        let slots = (0..preds).map(|_| Link::new(waiter)).collect();
        assert!(
            node.links.set(slots).is_ok(),
            "a node is initialised exactly once"
        );
        node.join.begin_scan(preds);
    }

    /// Registers `waiter` for `pred`'s completion through its `slot`-th
    /// registration slot (the position of `pred` in `waiter`'s predecessor
    /// list). `false` means `pred` is already computed.
    pub(crate) fn register(&self, waiter: NodeRef<K>, slot: usize, pred: NodeRef<K>) -> bool {
        let links = self.node(waiter).links.get();
        let link = &links.expect("begin_scan allocates the slots")[slot];
        // SAFETY: the link sits in a boxed slice owned by an arena-held
        // node, so it stays in place until the table is dropped, after
        // every task of the run — and with it `pred`'s list and any drain
        // of it — is gone. Each slot is registered once: the scan visits
        // each predecessor position once, and `begin_scan` (which makes
        // the slots) panics on a second initialisation.
        unsafe { self.node(pred).succ.register(link) }
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
        let table = NodeTable::new();
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
        let table = NodeTable::new();
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
        let table = NodeTable::new();
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
        let table = NodeTable::new();
        let (pred, _) = table.get_or_create(&0u32, Color(0));
        let (early, _) = table.get_or_create(&1u32, Color(1));
        let (late, _) = table.get_or_create(&2u32, Color(2));
        // `early` lists `pred` twice: two slots, two notifications.
        table.begin_scan(early, 2);
        assert!(table.register(early, 0, pred));
        assert!(table.register(early, 1, pred));
        assert!(!table.node(pred).is_computed());
        assert_eq!(table.complete(pred).collect::<Vec<_>>(), vec![early; 2]);
        assert!(table.node(pred).is_computed());
        table.begin_scan(late, 1);
        assert!(!table.register(late, 0, pred));
    }
}
