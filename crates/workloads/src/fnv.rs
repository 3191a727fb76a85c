//! FNV-1a, the hash every pin in this crate's tests is taken with.

use nabbitc_graph::TaskGraph;

/// An FNV-1a state fed one little-endian `u64` at a time.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `v` as eight little-endian bytes.
    pub(crate) fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over everything a built graph holds, each value fed as a
/// little-endian u64: the node count; per node its work, color,
/// predecessors, successors and accesses as (owner, bytes); then the
/// topological order.
pub(crate) fn graph(g: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.eat(g.node_count() as u64);
    for u in g.nodes() {
        h.eat(g.work(u));
        h.eat(u64::from(g.color(u).0));
        g.predecessors(u).iter().for_each(|&p| h.eat(u64::from(p)));
        g.successors(u).iter().for_each(|&s| h.eat(u64::from(s)));
        for a in g.accesses(u) {
            h.eat(u64::from(a.owner.0));
            h.eat(a.bytes);
        }
    }
    g.topo_order().iter().for_each(|&u| h.eat(u64::from(u)));
    h.finish()
}
