//! CSR task-graph representation and builder.
//!
//! A [`TaskGraph`] is two things, and only one of them is ever copied:
//!
//! * the **structure** — per-node work and home, per-home footprint, the
//!   successor and predecessor CSR and the topological order. It is fixed
//!   by [`GraphBuilder::build`], immutable from then on and held behind
//!   one `Arc`: every clone and every recoloring of a graph reads the same
//!   arrays ([`TaskGraph::shares_structure_with`]). Everything that prices
//!   or profiles a graph without looking at colors — [`EdgeTraffic`],
//!   [`level_profile`](crate::analysis::level_profile),
//!   [`TaskGraph::footprint`], [`TaskGraph::home`] — depends on the
//!   structure alone and is therefore invariant under recoloring and
//!   re-homing;
//! * the **coloring layer** — one [`Color`] per node (the paper's
//!   `color()` method of a node: a hint laid over an unchanged graph) and
//!   the access lists that say where the nodes' bytes live. A layer is
//!   private to its `TaskGraph`: [`recolor`](TaskGraph::recolor) and
//!   [`strip_colors`](TaskGraph::strip_colors) on one clone leave every
//!   other clone as it was.
//!
//! A node's *home* is the data block it works on. A node added with
//! [`GraphBuilder::add_node`] is a home of its own; one added with
//! [`GraphBuilder::add_node_at`] works on an earlier node's block, as the
//! time steps of an iterated stencil or PageRank revisit the same blocks.
//! Homes say *which* data a node touches. *Re-homing*, below, is a
//! different thing: it gives a block's bytes an owner color, that is,
//! says *where* the data lives.
//!
//! A layer stores its access lists back to back in one array, with `u32`
//! row offsets like the CSR adjacency's, so no list is a heap allocation
//! of its own. Lists come in two kinds. *Given* lists are the builder's,
//! stored one row per home. The lists of an *edge-traffic-homed* graph
//! ([`TaskGraph::recolored`], [`TaskGraph::strip_colors`]) are a function
//! of structure and colors, so recoloring stores nothing: they are built,
//! one row per node, by the first [`TaskGraph::accesses`] read (once,
//! also under concurrent readers) and belong to that (structure, colors)
//! pair only — the next re-homing drops them. The executors read colors
//! and never accesses, so a graph that is colored, run and dropped never
//! pays for lists only the NUMA simulator and the linter look at.

use nabbitc_color::Color;
use std::sync::{Arc, OnceLock};

/// Index of a node in a [`TaskGraph`].
pub type NodeId = u32;

/// One memory region touched by a node: `bytes` residing in the region owned
/// by (initialized by) the worker with color `owner`.
///
/// The NUMA simulator prices these accesses as local or remote depending on
/// which domain the executing core sits in; the paper's §V-B remote-access
/// metric counts them at node granularity the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeAccess {
    /// Color of the worker that owns (initialized) the region.
    pub owner: Color,
    /// Bytes touched in that region.
    pub bytes: u64,
}

/// Errors produced by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a dependence cycle; payload is one node on it.
    Cycle(NodeId),
    /// An edge endpoint is out of range.
    InvalidNode(NodeId),
    /// A node lists the same predecessor twice.
    DuplicateEdge(NodeId, NodeId),
    /// The graph has no nodes.
    Empty,
    /// The edge count does not fit the CSR's `u32` offsets; payload is the
    /// offending count. Building would silently truncate adjacency past
    /// `u32::MAX` edges, so it is rejected up front.
    TooManyEdges(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle(n) => write!(f, "dependence cycle through node {n}"),
            GraphError::InvalidNode(n) => write!(f, "edge references unknown node {n}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {u} -> {v}"),
            GraphError::Empty => write!(f, "task graph has no nodes"),
            GraphError::TooManyEdges(m) => write!(
                f,
                "task graph has {m} edges, more than the CSR offsets can index ({})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Mutable builder for [`TaskGraph`].
///
/// Nodes are added with their work estimate, color, and either their
/// access list or an earlier node whose home they share; edges are added
/// as `(pred, succ)` pairs. [`GraphBuilder::build`] verifies
/// acyclicity and produces the immutable CSR form.
#[derive(Default, Clone)]
pub struct GraphBuilder {
    work: Vec<u64>,
    color: Vec<Color>,
    /// Each node's home, numbered in the order the homes were added.
    home: Vec<u32>,
    /// Each home's access list, one row per home.
    accesses: FlatLists,
    /// Total bytes of each home's access list, summed while the list is
    /// in hand.
    footprint: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with room for `nodes` nodes and `edges` edges.
    ///
    /// There is room for as many homes as nodes: the room only the homes
    /// use is written, so a graph whose steps share homes pays for the
    /// rest in address space, not in resident memory. The access lists'
    /// one entry array is not reserved, since its length is not known
    /// here: grown from empty it is extended in place, while a reservation
    /// sized by a guess mapped fresh pages on every build (glibc on Linux:
    /// 768 page faults per sw-wavefront build with one entry per node
    /// reserved, against 4 growing from empty).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            work: Vec::with_capacity(nodes),
            color: Vec::with_capacity(nodes),
            home: Vec::with_capacity(nodes),
            accesses: FlatLists::with_capacity(nodes, 0),
            footprint: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node that is its own home and returns its id.
    ///
    /// `work` is the node's computational cost in abstract work units
    /// (`W(u)` in the paper); `color` its locality hint; `accesses` the
    /// memory regions it touches, from any iterator — an array, a `Vec`
    /// or a generator's iterator. The list is copied into the graph's one
    /// access array, so the caller keeps nothing alive for it.
    pub fn add_node(
        &mut self,
        work: u64,
        color: Color,
        accesses: impl IntoIterator<Item = NodeAccess>,
    ) -> NodeId {
        self.home.push(to_u32("home", self.footprint.len()));
        let list = self.accesses.push(accesses);
        self.footprint.push(list.iter().map(|a| a.bytes).sum());
        self.push_node(work, color)
    }

    /// Adds a node that works on the data of the earlier node `home` — a
    /// later time step over the same block — and returns its id. The node
    /// takes `home`'s home, and with it its footprint and access list,
    /// which are stored once for both.
    ///
    /// Panics if `home` is not a node yet.
    pub fn add_node_at(&mut self, work: u64, color: Color, home: NodeId) -> NodeId {
        let Some(&home) = self.home.get(home as usize) else {
            panic!(
                "add_node_at: home {home} is not a node of a builder holding {} nodes",
                self.node_count()
            );
        };
        self.home.push(home);
        self.push_node(work, color)
    }

    fn push_node(&mut self, work: u64, color: Color) -> NodeId {
        let id = to_u32("node id", self.work.len());
        self.work.push(work);
        self.color.push(color);
        id
    }

    /// Convenience: node with a single access to its own color's region.
    pub fn add_simple_node(&mut self, work: u64, color: Color, bytes: u64) -> NodeId {
        self.add_node(
            work,
            color,
            [NodeAccess {
                owner: color,
                bytes,
            }],
        )
    }

    /// Declares that `succ` depends on `pred` (an edge `pred -> succ`).
    pub fn add_edge(&mut self, pred: NodeId, succ: NodeId) {
        self.edges.push((pred, succ));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.work.len()
    }

    /// Validates the nodes and edges added so far, collecting **every**
    /// statically detectable construction error instead of stopping at
    /// the first: [`GraphError::Empty`] / [`GraphError::TooManyEdges`]
    /// when they apply, then every out-of-range edge endpoint
    /// ([`GraphError::InvalidNode`], in edge order, `pred` before
    /// `succ`), then every duplicated edge
    /// ([`GraphError::DuplicateEdge`], in sorted edge order, reported
    /// once per duplicated pair, edges with an out-of-range endpoint
    /// included). An empty vector means [`build`](Self::build) can only
    /// fail with [`GraphError::Cycle`] (acyclicity needs the finished CSR
    /// and is checked by `build`).
    ///
    /// `build` fails with exactly the first entry of this list whenever
    /// it is non-empty, so collecting front ends (`graphlint`) and the
    /// fail-fast builder always agree on error priority. Both find
    /// duplicates with the one detector `build` runs on its CSR, so this
    /// costs O(V + E) and copies no edge list. Out-of-range endpoints get
    /// rows of their own past the last node, numbered in id order (a
    /// binary search each, on the error path only).
    pub fn check(&self) -> Vec<GraphError> {
        let mut errors = Vec::new();
        let n = self.work.len();
        if n == 0 {
            errors.push(GraphError::Empty);
        }
        // The CSR stores offsets as u32: an edge count past u32::MAX would
        // wrap the prefix sums and silently truncate adjacency.
        if self.edges.len() > u32::MAX as usize {
            errors.push(GraphError::TooManyEdges(self.edges.len()));
        }
        let mut unknown = Vec::new();
        for &(u, v) in &self.edges {
            for end in [u, v] {
                if end as usize >= n {
                    errors.push(GraphError::InvalidNode(end));
                    unknown.push(end);
                }
            }
        }

        // Rows (and columns) in id order: nodes first, then the unknown
        // ids, so row order is sorted edge order.
        unknown.sort_unstable();
        unknown.dedup();
        let row = |id: NodeId| {
            if (id as usize) < n {
                id as usize
            } else {
                n + unknown.binary_search(&id).expect("collected above")
            }
        };
        let rows = n + unknown.len();
        let mut off = vec![0usize; rows + 1];
        for &(u, _) in &self.edges {
            off[row(u) + 1] += 1;
        }
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let mut adj = vec![0 as NodeId; self.edges.len()];
        let mut cur = off.clone();
        for &(u, v) in &self.edges {
            adj[cur[row(u)]] = row(v) as NodeId;
            cur[row(u)] += 1;
        }
        let id = |r: NodeId| {
            if (r as usize) < n {
                r
            } else {
                unknown[r as usize - n]
            }
        };
        let duplicates = duplicate_edges((0..rows).map(|r| &adj[off[r]..off[r + 1]]), rows);
        errors.extend(
            duplicates
                .into_iter()
                .map(|(u, v)| GraphError::DuplicateEdge(id(u), id(v))),
        );
        errors
    }

    /// Finalizes the graph, checking edge validity and acyclicity.
    ///
    /// Fails with the first error [`check`](Self::check) collects; use
    /// `check` to see all of them at once. Validation rides on the CSR
    /// being built, O(V + E) in all: endpoints are checked in the pass
    /// that counts degrees, duplicates by the detector `check` shares,
    /// run over the finished successor rows.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let n = self.work.len();
        let m = self.edges.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if m > u32::MAX as usize {
            return Err(GraphError::TooManyEdges(m));
        }

        // CSR for successors and predecessors.
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            if u.max(v) as usize >= n {
                let first = if u as usize >= n { u } else { v };
                return Err(GraphError::InvalidNode(first));
            }
            succ_off[u as usize + 1] += 1;
            pred_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succ_adj = vec![0 as NodeId; m];
        let mut pred_adj = vec![0 as NodeId; m];
        let mut succ_cur = succ_off.clone();
        let mut pred_cur = pred_off.clone();
        for &(u, v) in &self.edges {
            succ_adj[succ_cur[u as usize] as usize] = v;
            succ_cur[u as usize] += 1;
            pred_adj[pred_cur[v as usize] as usize] = u;
            pred_cur[v as usize] += 1;
        }

        let mut structure = Structure {
            work: self.work,
            home: self.home,
            footprint: self.footprint,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            topo: Vec::new(),
        };
        let rows = (0..n as NodeId).map(|u| structure.successors(u));
        if let Some(&(u, v)) = duplicate_edges(rows, n).first() {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        structure.topo = structure.compute_topo_order()?;
        Ok(TaskGraph {
            structure: Arc::new(structure),
            color: self.color,
            accesses: OnceLock::from(Arc::new(AccessLists::PerHome(self.accesses))),
        })
    }
}

/// `value` as the `u32` a graph stores it in. Panics past `u32::MAX`,
/// naming `counter` and `value`, where a cast would wrap silently.
fn to_u32(counter: &str, value: usize) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| {
        panic!(
            "GraphBuilder: {counter} {value} does not fit a u32 (at most {})",
            u32::MAX
        )
    })
}

/// The one duplicate-edge detector, behind [`GraphBuilder::check`] and
/// [`GraphBuilder::build`]: every `(row, column)` pair `rows` holds more
/// than once, once per pair, in sorted order. Row `r` is the `r`-th item
/// of `rows`, and every column is below `columns`.
///
/// O(rows + columns + E) with no copy of the pairs: a row stamps each
/// column it holds with its own index, so a column already carrying the
/// stamp is a repeat. Only the repeats found are sorted.
fn duplicate_edges<'a>(
    rows: impl Iterator<Item = &'a [NodeId]>,
    columns: usize,
) -> Vec<(NodeId, NodeId)> {
    // The first stamp is no row's: row u32::MAX would need every u32 id.
    let mut stamp = vec![NodeId::MAX; columns];
    let mut repeats = Vec::new();
    for (r, row) in rows.enumerate() {
        let r = r as NodeId;
        for &c in row {
            if std::mem::replace(&mut stamp[c as usize], r) == r {
                repeats.push((r, c));
            }
        }
    }
    repeats.sort_unstable();
    repeats.dedup();
    repeats
}

/// What a coloring cannot change (see the module docs): built once,
/// shared by every clone and recoloring of the graph.
struct Structure {
    work: Vec<u64>,
    /// Each node's home.
    home: Vec<u32>,
    /// Total bytes each home's nodes touch, however their lists split
    /// them.
    footprint: Vec<u64>,
    succ_off: Vec<u32>,
    succ_adj: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred_adj: Vec<NodeId>,
    topo: Vec<NodeId>,
}

impl Structure {
    #[inline]
    fn successors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.succ_off[u as usize], self.succ_off[u as usize + 1]);
        &self.succ_adj[a as usize..b as usize]
    }

    #[inline]
    fn predecessors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.pred_off[u as usize], self.pred_off[u as usize + 1]);
        &self.pred_adj[a as usize..b as usize]
    }

    fn compute_topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.work.len();
        let mut indeg: Vec<u32> = (0..n as NodeId)
            .map(|u| self.predecessors(u).len() as u32)
            .collect();
        let mut queue: Vec<NodeId> = (0..n as NodeId)
            .filter(|&u| indeg[u as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &v in self.successors(u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n as NodeId)
                .find(|&u| indeg[u as usize] > 0)
                .expect("cycle implies a node with positive residual indegree");
            return Err(GraphError::Cycle(on_cycle));
        }
        Ok(order)
    }
}

/// Access lists stored back to back in one array: row `r` is
/// `entries[off[r]..off[r + 1]]`, the layout of the CSR adjacency.
#[derive(Clone)]
struct FlatLists {
    entries: Vec<NodeAccess>,
    off: Vec<u32>,
}

impl Default for FlatLists {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl FlatLists {
    /// No rows yet, with room for `rows` rows of `entries` entries in all.
    fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        FlatLists {
            entries: Vec::with_capacity(entries),
            off,
        }
    }

    /// Appends `row` as the next row and returns it.
    fn push(&mut self, row: impl IntoIterator<Item = NodeAccess>) -> &[NodeAccess] {
        let start = self.entries.len();
        self.entries.extend(row);
        self.off.push(to_u32("access list end", self.entries.len()));
        &self.entries[start..]
    }

    #[inline]
    fn row(&self, r: usize) -> &[NodeAccess] {
        &self.entries[self.off[r] as usize..self.off[r + 1] as usize]
    }
}

/// A layer's access lists: the builder's, one row per home, or lists
/// derived for the layer, one row per node.
enum AccessLists {
    PerHome(FlatLists),
    PerNode(FlatLists),
}

/// A task graph in CSR form: one immutable, shared structure under one
/// coloring layer (see the module docs).
///
/// Nodes are identified by dense [`NodeId`]s. Both predecessor and successor
/// adjacency are stored so that executors can walk dependences in either
/// direction (Nabbit explores predecessors on demand and notifies
/// successors). `clone` copies the colors and takes a reference to
/// everything else.
#[derive(Clone)]
pub struct TaskGraph {
    structure: Arc<Structure>,
    color: Vec<Color>,
    /// The access lists. Unset means edge-traffic-homed under the current
    /// colors and not read yet ([`Self::edge_traffic_homed`] fills it); once
    /// set, the lists stay what they are until the next re-homing,
    /// whatever the colors do.
    accesses: OnceLock<Arc<AccessLists>>,
}

impl TaskGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.structure.work.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.structure.succ_adj.len()
    }

    /// Work `W(u)` of a node.
    #[inline]
    pub fn work(&self, u: NodeId) -> u64 {
        self.structure.work[u as usize]
    }

    /// Locality color of a node.
    #[inline]
    pub fn color(&self, u: NodeId) -> Color {
        self.color[u as usize]
    }

    /// Memory accesses of a node. On an edge-traffic-homed graph the
    /// first call builds every node's list (O(V + E), once per coloring,
    /// safe under concurrent readers); later calls are a load.
    #[inline]
    pub fn accesses(&self, u: NodeId) -> &[NodeAccess] {
        match &**self.access_lists() {
            AccessLists::PerHome(lists) => lists.row(self.home(u) as usize),
            AccessLists::PerNode(lists) => lists.row(u as usize),
        }
    }

    fn access_lists(&self) -> &Arc<AccessLists> {
        self.accesses
            .get_or_init(|| Arc::new(self.edge_traffic_homed()))
    }

    /// Successors of `u` (nodes that depend on `u`).
    #[inline]
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        self.structure.successors(u)
    }

    /// Predecessors of `u` (nodes `u` depends on).
    #[inline]
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        self.structure.predecessors(u)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.predecessors(u).len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.successors(u).len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.in_degree(u) == 0).collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.out_degree(u) == 0).collect()
    }

    /// A topological order of the nodes (computed once at build time).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.structure.topo
    }

    /// Whether `self` and `other` are layers over one structure: clones or
    /// recolorings of the same built graph, reading the same CSR arrays.
    pub fn shares_structure_with(&self, other: &TaskGraph) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }

    /// Overrides every node's color. Used by the bad/invalid coloring
    /// experiments (Tables II and III) without rebuilding the graph: only
    /// the scheduling hint changes, the data stays where it is — the
    /// access lists read after the call are the ones read before it (an
    /// edge-traffic-homed graph's are built under the old colors first).
    pub fn recolor(&mut self, mut f: impl FnMut(NodeId, Color) -> Color) {
        self.access_lists();
        for u in 0..self.color.len() {
            self.color[u] = f(u as NodeId, self.color[u]);
        }
    }

    /// This graph under another coloring: a new layer over the same
    /// structure whose colors are `colors` and whose data is re-homed to
    /// them under the [`edge_traffic`](Self::edge_traffic) model, for the
    /// price of copying `colors`. `self` is untouched.
    ///
    /// Each node reads its predecessors' outputs from the predecessors'
    /// regions and the rest of its footprint from its own region
    /// (first-touch by the owning worker). Total bytes per node are
    /// preserved, so serial baselines are unaffected; only the
    /// local/remote split changes. This is the placement model behind
    /// every recolored simulation (`nabbitc-numasim::simulate_ws_recolored`)
    /// and applied assignment: a cross-color dependence edge carries real
    /// remote-byte traffic, as the bandwidth-aware makespan estimator
    /// charges. The lists — a region per owner color, predecessors'
    /// colors in adjacency order and then the node's own, each listed
    /// where it first gets bytes — are built by the first
    /// [`accesses`](Self::accesses) read.
    ///
    /// Colors become data placement here, so all of them must name a
    /// region: panics, before anything is built, if `colors` is not one
    /// color per node or holds [`Color::INVALID`].
    pub fn recolored(&self, colors: &[Color]) -> TaskGraph {
        assert_eq!(
            colors.len(),
            self.node_count(),
            "one color per node: {} colors for a graph of {} nodes",
            colors.len(),
            self.node_count()
        );
        if let Some(u) = colors.iter().position(|c| !c.is_valid()) {
            panic!("assignments must use valid colors: node {u} is assigned Color::INVALID");
        }
        TaskGraph {
            structure: self.structure.clone(),
            color: colors.to_vec(),
            accesses: OnceLock::new(),
        }
    }

    /// Total bytes touched by a node, however its access list splits them.
    #[inline]
    pub fn footprint(&self, u: NodeId) -> u64 {
        self.structure.footprint[self.home(u) as usize]
    }

    /// The home of a node: the data block it works on. Nodes added with
    /// [`GraphBuilder::add_node`] are their own homes, and homes are
    /// numbered densely from 0 in the order they were added.
    #[inline]
    pub fn home(&self, u: NodeId) -> u32 {
        self.structure.home[u as usize]
    }

    /// Number of homes: the graph's data blocks.
    #[inline]
    pub fn home_count(&self) -> usize {
        self.structure.footprint.len()
    }

    /// Erases all coloring information: every node becomes `Color(0)` and
    /// its accesses are re-homed there — the canonical "user handed us an
    /// uncolored graph" form consumed by the autocolor assigners. Under
    /// one color the edge-traffic lists ([`recolored`](Self::recolored))
    /// hold one region per node, `Color(0)` with the node's whole
    /// footprint (none for an empty footprint), built when first read.
    pub fn strip_colors(&mut self) {
        self.color.fill(Color(0));
        self.accesses = OnceLock::new();
    }

    /// Bytes assumed to travel along the dependence edge `p -> u`: the
    /// producer's footprint split evenly among its consumers, capped by
    /// the consumer's even share of its own footprint.
    ///
    /// This is the workspace's shared *edge-traffic model* — the bytes a
    /// cross-color edge moves across domains, priced by
    /// `nabbitc_cost::CostModel::remote_excess` in the makespan
    /// estimator, the autocolor refinement gain, and (through the access
    /// lists of [`recolored`](Self::recolored)) the NUMA simulator. The
    /// cap guarantees `Σ_p edge_traffic(p, u) ≤ footprint(u)`, so a
    /// node's inbound traffic never exceeds the bytes it actually touches.
    ///
    /// One-edge convenience over [`EdgeTraffic`], which defines the model
    /// and is what anything that walks edges builds once instead.
    pub fn edge_traffic(&self, p: NodeId, u: NodeId) -> u64 {
        NodeShares::of(self, p)
            .out_share
            .min(NodeShares::of(self, u).in_share)
    }

    /// The access lists of this graph read as one whose colors are its
    /// data placement ([`recolored`](Self::recolored) states the model and
    /// the order of a list's entries).
    fn edge_traffic_homed(&self) -> AccessLists {
        let traffic = EdgeTraffic::of(self);
        let n = self.node_count();
        // Bytes per owner color of the node in hand (zero between
        // nodes), and the owners in the order they first got any: a
        // node's region list is written once, with no search per edge.
        let colors = self.color.iter().map(|c| c.0 as usize + 1).max();
        let mut owned = vec![0u64; colors.unwrap_or(0)];
        let mut owners: Vec<Color> = Vec::new();
        let mut rehomed = FlatLists::with_capacity(n, n);
        for u in 0..n as NodeId {
            let mut push = |owner: Color, bytes: u64| {
                if bytes == 0 {
                    return;
                }
                if owned[owner.0 as usize] == 0 {
                    owners.push(owner);
                }
                owned[owner.0 as usize] += bytes;
            };
            let mut inbound = 0u64;
            for &p in self.predecessors(u) {
                let b = traffic.traffic(p, u);
                inbound += b;
                push(self.color[p as usize], b);
            }
            // The cap in the traffic model guarantees inbound ≤ footprint.
            push(self.color[u as usize], self.footprint(u) - inbound);
            rehomed.push(owners.drain(..).map(|owner| NodeAccess {
                owner,
                bytes: std::mem::take(&mut owned[owner.0 as usize]),
            }));
        }
        AccessLists::PerNode(rehomed)
    }
}

/// One node's terms of the edge-traffic model: the share of its
/// footprint each consumer reads, and the share each producer fills. The
/// only place the model's formula is written down.
struct NodeShares {
    out_share: u64,
    in_share: u64,
}

impl NodeShares {
    fn of(g: &TaskGraph, u: NodeId) -> Self {
        let footprint = g.footprint(u);
        NodeShares {
            out_share: footprint / g.out_degree(u).max(1) as u64,
            in_share: footprint / g.in_degree(u).max(1) as u64,
        }
    }
}

/// Per-node view of the edge-traffic model ([`TaskGraph::edge_traffic`]),
/// built once in O(V) so that edge walks — the makespan
/// estimator, the autocolor sweep and refinement gain, the access lists
/// of [`TaskGraph::recolored`], the traffic matrices and the
/// hot-edge lint — price an edge with two loads and a `min` instead of
/// two divisions.
///
/// Two per-node vectors, deliberately not a per-edge array: the
/// per-edge value is `min(out_share[p], in_share[u])`, and on a
/// million-edge graph an 8-byte-per-edge table would cost as much memory
/// as the graph's own adjacency. (A node's footprint itself is needed
/// once per node, not per edge: [`TaskGraph::footprint`] serves that.)
///
/// The view depends on the graph's structure only (footprints and
/// degrees), not on its coloring layer: one view serves every recoloring
/// of a graph.
#[derive(Clone, Debug)]
pub struct EdgeTraffic {
    out_share: Vec<u64>,
    in_share: Vec<u64>,
}

impl EdgeTraffic {
    /// Builds the view of `g`.
    pub fn of(g: &TaskGraph) -> Self {
        let (out_share, in_share) = g
            .nodes()
            .map(|u| NodeShares::of(g, u))
            .map(|s| (s.out_share, s.in_share))
            .unzip();
        EdgeTraffic {
            out_share,
            in_share,
        }
    }

    /// The bytes each consumer of `u` reads of it: `u`'s footprint split
    /// evenly over its out-edges.
    #[inline]
    pub fn out_share(&self, u: NodeId) -> u64 {
        self.out_share[u as usize]
    }

    /// The bytes each producer of `u` fills of it: `u`'s footprint split
    /// evenly over its in-edges.
    #[inline]
    pub fn in_share(&self, u: NodeId) -> u64 {
        self.in_share[u as usize]
    }

    /// Bytes travelling along the dependence edge `p -> u`
    /// ([`TaskGraph::edge_traffic`]): the producer's out-share, capped by
    /// the consumer's in-share. `p -> u` must be an edge of the graph the
    /// view was built from for the value to mean anything.
    #[inline]
    pub fn traffic(&self, p: NodeId, u: NodeId) -> u64 {
        self.out_share(p).min(self.in_share(u))
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> {1,2} -> 3
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_simple_node(10 + i, Color(i as u16), 64);
        }
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.predecessors(3), &[1, 2]);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.work(2), 12);
        assert_eq!(g.color(1), Color(1));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 4];
            for (i, &u) in g.topo_order().iter().enumerate() {
                pos[u as usize] = i;
            }
            pos
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_detected() {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_simple_node(1, Color(0), 0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 0);
        assert!(matches!(b.build(), Err(GraphError::Cycle(0))));
    }

    #[test]
    fn invalid_edge_rejected() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 5);
        assert_eq!(b.build().unwrap_err(), GraphError::InvalidNode(5));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn check_collects_every_error_in_one_pass() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 7); // invalid succ
        b.add_edge(9, 1); // invalid pred
        b.add_edge(0, 1);
        b.add_edge(0, 1); // duplicate (twice more below)
        b.add_edge(0, 1);
        b.add_edge(1, 0); // fine on its own (cycle is build's job)
        let errors = b.check();
        assert_eq!(
            errors,
            vec![
                GraphError::InvalidNode(7),
                GraphError::InvalidNode(9),
                GraphError::DuplicateEdge(0, 1),
            ]
        );
        // build reports exactly the first collected error.
        assert_eq!(b.build().unwrap_err(), GraphError::InvalidNode(7));
    }

    #[test]
    fn check_reports_both_endpoints_and_empty_is_first() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 4); // both endpoints invalid, and no nodes at all
        let errors = b.check();
        assert_eq!(
            errors,
            vec![
                GraphError::Empty,
                GraphError::InvalidNode(3),
                GraphError::InvalidNode(4),
            ]
        );
    }

    #[test]
    fn check_is_empty_on_a_valid_builder() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 0);
        b.add_simple_node(1, Color(0), 0);
        b.add_edge(0, 1);
        assert!(b.check().is_empty());
        assert!(b.build().is_ok());
    }

    #[test]
    fn too_many_edges_reported_clearly() {
        // Allocating > u32::MAX edges (32+ GiB) is not testable directly;
        // pin the error's contract instead: the variant exists, carries
        // the offending count, and its message names the limit.
        let err = GraphError::TooManyEdges(u32::MAX as usize + 1);
        let msg = err.to_string();
        assert!(msg.contains("4294967296 edges"), "{msg}");
        assert!(msg.contains("4294967295"), "{msg}");
    }

    #[test]
    fn recolor_applies() {
        let mut g = diamond();
        g.recolor(|_, c| Color(c.0 + 10));
        assert_eq!(g.color(0), Color(10));
        assert_eq!(g.color(3), Color(13));
    }

    /// Every node's colors and access lists, as a reader sees them.
    fn layer(g: &TaskGraph) -> Vec<(Color, Vec<NodeAccess>)> {
        g.nodes()
            .map(|u| (g.color(u), g.accesses(u).to_vec()))
            .collect()
    }

    fn panic_message<T: std::fmt::Debug>(f: impl FnOnce() -> T) -> String {
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must be refused");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn recoloring_builds_no_lists_and_the_first_read_builds_them_once() {
        let g = diamond();
        let colors = [Color(1), Color(0), Color(1), Color(0)];
        let mut stripped = g.clone();
        stripped.strip_colors();
        let recolored = Arc::new(g.recolored(&colors));
        assert!(stripped.accesses.get().is_none(), "stripping built lists");
        assert!(recolored.accesses.get().is_none(), "recoloring built lists");
        assert!(g.accesses.get().is_some(), "the builder's lists are given");

        // Two first readers at once: one build, both see it.
        let barrier = std::sync::Barrier::new(2);
        let read = || {
            barrier.wait();
            recolored.accesses(3).as_ptr() as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(read);
            (read(), other.join().expect("reader panicked"))
        });
        assert_eq!(a, b, "two readers, two sets of lists");
        let built = Arc::as_ptr(recolored.accesses.get().expect("read above"));
        assert_eq!(recolored.accesses(3).as_ptr() as usize, a);
        assert_eq!(Arc::as_ptr(recolored.access_lists()), built, "rebuilt");
        // A clone of a read layer takes the lists along.
        let clone = TaskGraph::clone(&recolored);
        assert_eq!(Arc::as_ptr(clone.access_lists()), built);
        // What was built is what the parent design stored at recolor time.
        assert_eq!(
            recolored.accesses(3),
            &[
                NodeAccess {
                    owner: Color(0),
                    bytes: 32
                },
                NodeAccess {
                    owner: Color(1),
                    bytes: 32
                }
            ]
        );
    }

    #[test]
    fn recolored_refuses_a_bad_color_vector_naming_what_is_wrong() {
        let g = diamond();
        let msg = panic_message(|| g.recolored(&[Color(0); 5]));
        assert!(msg.contains("5 colors") && msg.contains("4 nodes"), "{msg}");
        let msg = panic_message(|| g.recolored(&[]));
        assert!(msg.contains("0 colors") && msg.contains("4 nodes"), "{msg}");
        let msg =
            panic_message(|| g.recolored(&[Color(0), Color::INVALID, Color(1), Color::INVALID]));
        assert!(msg.contains("node 1"), "first offender: {msg}");
    }

    #[test]
    fn layers_over_one_structure_never_see_each_others_changes() {
        let g = diamond();
        let given = layer(&g);
        let base = g.recolored(&[Color(1), Color(0), Color(1), Color(0)]);
        // `unread` stays unread until the end: its lists are built after
        // every other layer has changed, from its own colors.
        let unread = base.clone();
        let expected = layer(&base);
        assert_ne!(expected, given);

        let mut recolored = base.clone();
        recolored.recolor(|_, c| Color(c.0 + 4));
        let mut stripped = base.clone();
        stripped.strip_colors();
        let again = base.recolored(&[Color(2); 4]);

        for other in [&recolored, &stripped, &again, &unread] {
            assert!(other.shares_structure_with(&g));
        }
        assert_eq!(layer(&g), given, "the input moved");
        assert_eq!(
            layer(&base),
            expected,
            "a clone's change reached its origin"
        );
        assert_eq!(
            layer(&unread),
            expected,
            "a clone's change reached a sibling"
        );
        // Each change did what it says, on its own layer: `recolor` moves
        // hints and leaves data, the others move data with the colors.
        for u in g.nodes() {
            assert_eq!(recolored.color(u), Color(base.color(u).0 + 4));
            assert_eq!(recolored.accesses(u), base.accesses(u));
            assert_eq!(stripped.color(u), Color(0));
            assert_eq!(
                stripped.accesses(u),
                &[NodeAccess {
                    owner: Color(0),
                    bytes: 64
                }]
            );
            assert_eq!(again.color(u), Color(2));
            assert!(again.accesses(u).iter().all(|a| a.owner == Color(2)));
        }
        assert!(
            !diamond().shares_structure_with(&g),
            "two builds, one structure"
        );
    }

    #[test]
    fn a_node_added_at_a_home_reads_that_homes_list_in_every_layer() {
        let mut b = GraphBuilder::new();
        let halo = |owner| NodeAccess { owner, bytes: 8 };
        let first = b.add_node(1, Color(0), vec![halo(Color(0)), halo(Color(1))]);
        b.add_simple_node(2, Color(1), 100);
        let later = b.add_node_at(3, Color(0), first);
        let again = b.add_node_at(4, Color(0), later);
        b.add_edge(first, later);
        b.add_edge(later, again);
        let g = b.build().unwrap();
        assert_eq!(g.home_count(), 2);
        assert_eq!([0, 1, 2, 3].map(|u| g.home(u)), [0, 1, 0, 0]);
        assert_eq!([0, 1, 2, 3].map(|u| g.footprint(u)), [16, 100, 16, 16]);
        assert_eq!(g.work(again), 4);
        // One stored list, read through either node.
        assert_eq!(g.accesses(again), &[halo(Color(0)), halo(Color(1))]);
        assert_eq!(g.accesses(again).as_ptr(), g.accesses(first).as_ptr());

        // Colorings are layers: every one keeps the homes, and the lists
        // derived for a layer are its nodes' own.
        let mut stripped = g.clone();
        stripped.strip_colors();
        let recolored = g.recolored(&[Color(1), Color(0), Color(1), Color(0)]);
        for layer in [&stripped, &recolored] {
            assert_eq!(
                g.nodes().map(|u| layer.home(u)).collect::<Vec<_>>(),
                [0, 1, 0, 0]
            );
            assert_eq!(layer.home_count(), 2);
        }
        assert_eq!(
            stripped.accesses(again),
            &[NodeAccess {
                owner: Color(0),
                bytes: 16
            }]
        );
        // Node 3 reads all 16 bytes from its predecessor, colored 1.
        assert_eq!(
            recolored.accesses(again),
            &[NodeAccess {
                owner: Color(1),
                bytes: 16
            }]
        );
    }

    #[test]
    fn a_home_that_is_not_a_node_yet_is_refused_at_the_call() {
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 8);
        let msg = panic_message(|| b.clone().add_node_at(1, Color(0), 1));
        assert!(msg.contains("home 1") && msg.contains("1 nodes"), "{msg}");
        let msg = panic_message(|| GraphBuilder::new().add_node_at(1, Color(0), 0));
        assert!(msg.contains("home 0") && msg.contains("0 nodes"), "{msg}");
    }

    #[test]
    fn a_counter_past_u32_max_is_refused_naming_it_and_its_value() {
        // The builder's node ids, homes and access list ends all pass
        // through `to_u32`; a four-billion-node graph is not needed to
        // see it refuse.
        assert_eq!(to_u32("home", u32::MAX as usize), u32::MAX);
        for counter in ["node id", "home", "access list end"] {
            let msg = panic_message(|| to_u32(counter, u32::MAX as usize + 1));
            assert!(msg.contains(&format!("{counter} 4294967296")), "{msg}");
            assert!(msg.contains("4294967295"), "{msg}");
        }
    }

    #[test]
    fn strip_colors_rehomes_each_footprint_to_color_zero() {
        let mut b = GraphBuilder::new();
        b.add_node(
            1,
            Color(2),
            vec![
                NodeAccess {
                    owner: Color(0),
                    bytes: 100,
                },
                NodeAccess {
                    owner: Color(1),
                    bytes: 28,
                },
            ],
        );
        b.add_node(1, Color(3), vec![]);
        let mut g = b.build().unwrap();
        g.strip_colors();
        assert_eq!(
            g.accesses(0),
            &[NodeAccess {
                owner: Color(0),
                bytes: 128
            }]
        );
        assert!(g.accesses(1).is_empty());
        assert_eq!(g.footprint(0), 128);
    }

    #[test]
    fn edge_traffic_splits_producer_output_and_caps_at_consumer_share() {
        // 0 -> {1,2} -> 3; footprints 600, 90, 600, 600.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 600);
        b.add_simple_node(1, Color(0), 90);
        b.add_simple_node(1, Color(1), 600);
        b.add_simple_node(1, Color(1), 600);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        // Producer 0 splits 600 over 2 consumers = 300; consumer 1's own
        // share is 90/1 — the cap binds.
        assert_eq!(g.edge_traffic(0, 1), 90);
        // Consumer 2 has footprint 600, in-degree 1: producer share binds.
        assert_eq!(g.edge_traffic(0, 2), 300);
        // Inbound never exceeds the consumer's footprint.
        for u in g.nodes() {
            let inbound: u64 = g
                .predecessors(u)
                .iter()
                .map(|&p| g.edge_traffic(p, u))
                .sum();
            assert!(inbound <= g.footprint(u), "node {u}");
        }
    }

    #[test]
    fn edge_traffic_view_agrees_with_the_one_edge_form_after_rehoming() {
        // Re-homing splits every access list by owner; the view sums them
        // once per node and must price every edge as the per-edge
        // convenience does, before and after.
        let mut b = GraphBuilder::new();
        for (i, bytes) in [600u64, 90, 600, 7, 0].into_iter().enumerate() {
            b.add_simple_node(1, Color(i as u16 % 3), bytes);
        }
        for (p, u) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4)] {
            b.add_edge(p, u);
        }
        let g = b.build().unwrap();
        let before = EdgeTraffic::of(&g);
        let built: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
        let g = g.recolored(&built);
        let after = EdgeTraffic::of(&g);
        for u in g.nodes() {
            for &p in g.predecessors(u) {
                assert_eq!(after.traffic(p, u), g.edge_traffic(p, u), "{p}->{u}");
                assert_eq!(after.traffic(p, u), before.traffic(p, u), "{p}->{u}");
            }
        }
    }

    #[test]
    fn rehome_edge_traffic_preserves_footprint_and_prices_cross_reads() {
        // The diamond's own colors 0,1,2,3; footprints 64 each.
        let g = diamond().recolored(&[Color(0), Color(1), Color(2), Color(3)]);
        for u in g.nodes() {
            assert_eq!(g.footprint(u), 64, "total bytes preserved at {u}");
        }
        // The source has no predecessors: everything in its own region.
        assert_eq!(
            g.accesses(0),
            &[NodeAccess {
                owner: Color(0),
                bytes: 64
            }]
        );
        // Node 1 reads its share of node 0's output (64/2 = 32) from
        // color 0 and the rest from its own region.
        assert_eq!(
            g.accesses(1),
            &[
                NodeAccess {
                    owner: Color(0),
                    bytes: 32
                },
                NodeAccess {
                    owner: Color(1),
                    bytes: 32
                }
            ]
        );
        // The sink reads from both branch owners.
        let owners: Vec<Color> = g.accesses(3).iter().map(|a| a.owner).collect();
        assert!(owners.contains(&Color(1)) && owners.contains(&Color(2)));
    }

    #[test]
    fn rehome_edge_traffic_merges_same_owner_regions() {
        // Two same-colored producers feeding one consumer merge into one
        // region of that color.
        let mut b = GraphBuilder::new();
        b.add_simple_node(1, Color(0), 100);
        b.add_simple_node(1, Color(0), 100);
        b.add_simple_node(1, Color(1), 400);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b
            .build()
            .unwrap()
            .recolored(&[Color(0), Color(0), Color(1)]);
        assert_eq!(
            g.accesses(2),
            &[
                NodeAccess {
                    owner: Color(0),
                    bytes: 200
                },
                NodeAccess {
                    owner: Color(1),
                    bytes: 200
                }
            ]
        );
    }

    #[test]
    fn footprint_sums_accesses() {
        let mut b = GraphBuilder::new();
        b.add_node(
            1,
            Color(0),
            vec![
                NodeAccess {
                    owner: Color(0),
                    bytes: 100,
                },
                NodeAccess {
                    owner: Color(1),
                    bytes: 28,
                },
            ],
        );
        let g = b.build().unwrap();
        assert_eq!(g.footprint(0), 128);
    }

    /// `check` with duplicates found by sorting a copy of the edge list:
    /// the reference `check` must equal entry for entry.
    fn check_by_sorting(b: &GraphBuilder) -> Vec<GraphError> {
        let mut errors = Vec::new();
        let n = b.work.len();
        if n == 0 {
            errors.push(GraphError::Empty);
        }
        if b.edges.len() > u32::MAX as usize {
            errors.push(GraphError::TooManyEdges(b.edges.len()));
        }
        for &(u, v) in &b.edges {
            if u as usize >= n {
                errors.push(GraphError::InvalidNode(u));
            }
            if v as usize >= n {
                errors.push(GraphError::InvalidNode(v));
            }
        }
        let mut sorted = b.edges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                let dup = GraphError::DuplicateEdge(w[0].0, w[0].1);
                if errors.last() != Some(&dup) {
                    errors.push(dup);
                }
            }
        }
        errors
    }

    /// The CSR arrays and topological order of a built structure.
    type Csr = [Vec<NodeId>; 5];

    fn csr(s: &Structure) -> Csr {
        [
            s.succ_off.clone(),
            s.succ_adj.clone(),
            s.pred_off.clone(),
            s.pred_adj.clone(),
            s.topo.clone(),
        ]
    }

    /// `build` over the sort-based check: fail with its first entry, else
    /// fill the CSR edge by edge and order it topologically.
    fn build_by_sorting(b: &GraphBuilder) -> Result<Csr, GraphError> {
        if let Some(first) = check_by_sorting(b).into_iter().next() {
            return Err(first);
        }
        let n = b.work.len();
        let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in &b.edges {
            succ[u as usize].push(v);
            pred[v as usize].push(u);
        }
        let offsets = |rows: &[Vec<NodeId>]| {
            std::iter::once(0)
                .chain(rows.iter().scan(0, |off, row| {
                    *off += row.len() as u32;
                    Some(*off)
                }))
                .collect()
        };
        let mut s = Structure {
            work: b.work.clone(),
            home: b.home.clone(),
            footprint: b.footprint.clone(),
            succ_off: offsets(&succ),
            succ_adj: succ.concat(),
            pred_off: offsets(&pred),
            pred_adj: pred.concat(),
            topo: Vec::new(),
        };
        s.topo = s.compute_topo_order()?;
        Ok(csr(&s))
    }

    /// A random builder of 0–40 nodes. About one builder in three each
    /// may have edges with an endpoint past the last node or near
    /// `u32::MAX`; backward edges and self-loops (cycles; the others are
    /// kept forward); edges added two or three times, invalid ones
    /// included, the copies scattered; and edges grouped by either
    /// endpoint instead of shuffled.
    fn random_builder(rng: &mut rand::rngs::StdRng) -> GraphBuilder {
        use rand::Rng;
        let n = rng.gen_range(0..=40u32);
        let mut flaw = || rng.gen_range(0..3u32) == 0;
        let (invalid, cyclic, repeated) = (flaw(), flaw(), flaw());
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_simple_node(1, Color(0), 8);
        }
        let end = |rng: &mut rand::rngs::StdRng| {
            if n > 0 && !(invalid && rng.gen_range(0..8u32) == 0) {
                rng.gen_range(0..n)
            } else if rng.gen_bool(0.5) {
                n + rng.gen_range(0..3u32)
            } else {
                u32::MAX - rng.gen_range(0..2u32)
            }
        };
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..=2 * n + 4) {
            let (mut u, mut v) = (end(rng), end(rng));
            if !cyclic && u.max(v) < n {
                if u == v {
                    continue;
                }
                (u, v) = (u.min(v), u.max(v));
            }
            let copies = if repeated {
                [1, 1, 2, 3][rng.gen_range(0..4usize)]
            } else {
                1
            };
            edges.extend(std::iter::repeat_n((u, v), copies));
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        // Some builders add their edges grouped by one endpoint.
        match rng.gen_range(0..3u32) {
            0 => edges.sort_by_key(|&(u, _)| u),
            1 => edges.sort_by_key(|&(_, v)| v),
            _ => {}
        }
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b
    }

    #[test]
    fn linear_check_and_build_match_the_sort_based_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dd_ed9e);
        // Built; and failed with a cycle, no nodes, an invalid endpoint, a
        // duplicate; and checks listing a duplicate with an invalid end.
        let mut seen = [0usize; 6];
        for case in 0..4000 {
            let b = random_builder(&mut rng);
            let expected = check_by_sorting(&b);
            assert_eq!(b.check(), expected, "case {case}: edges {:?}", b.edges);
            let reference = build_by_sorting(&b);
            let built = b.clone().build().map(|g| csr(&g.structure));
            assert_eq!(built, reference, "case {case}: edges {:?}", b.edges);
            seen[match reference {
                Ok(_) => 0,
                Err(GraphError::Cycle(_)) => 1,
                Err(GraphError::Empty) => 2,
                Err(GraphError::InvalidNode(_)) => 3,
                Err(GraphError::DuplicateEdge(..)) => 4,
                Err(GraphError::TooManyEdges(_)) => unreachable!("at most 252 edges"),
            }] += 1;
            let n = b.node_count() as NodeId;
            let invalid_duplicate =
                |e: &GraphError| matches!(*e, GraphError::DuplicateEdge(u, v) if u.max(v) >= n);
            seen[5] += usize::from(expected.iter().any(invalid_duplicate));
        }
        assert!(
            seen.iter().all(|&k| k >= 50),
            "a kind went untested: {seen:?}"
        );
    }

    /// A builder filled by a random script, and what every node's list,
    /// home and footprint must read after `build`: one `Vec` per node,
    /// the home's list copied to each node added at it.
    struct Script {
        builder: GraphBuilder,
        lists: Vec<Vec<NodeAccess>>,
        homes: Vec<u32>,
    }

    /// 1–30 nodes: `add_node` with 0–4 accesses, zero-byte regions
    /// included, or `add_node_at` a random earlier node. The first and the
    /// last node are each an empty list in about one script in three, and
    /// about one list in five in the middle is empty. Forward edges only,
    /// each at most once.
    fn random_script(rng: &mut rand::rngs::StdRng) -> Script {
        use rand::Rng;
        let n = rng.gen_range(1..=30usize);
        let (empty_first, empty_last) = (rng.gen_range(0..3u32) == 0, rng.gen_range(0..3u32) == 0);
        let mut s = Script {
            builder: GraphBuilder::new(),
            lists: Vec::new(),
            homes: Vec::new(),
        };
        for u in 0..n {
            let color = Color(rng.gen_range(0..4u16));
            let work = rng.gen_range(0..100u64);
            let forced_empty = (u == 0 && empty_first) || (u + 1 == n && empty_last);
            if !forced_empty && u > 0 && rng.gen_range(0..3u32) == 0 {
                let at = rng.gen_range(0..u);
                s.builder.add_node_at(work, color, at as NodeId);
                s.lists.push(s.lists[at].clone());
                s.homes.push(s.homes[at]);
                continue;
            }
            let len = if forced_empty || rng.gen_range(0..5u32) == 0 {
                0
            } else {
                rng.gen_range(1..=4usize)
            };
            let list: Vec<NodeAccess> = (0..len)
                .map(|_| NodeAccess {
                    owner: Color(rng.gen_range(0..4u16)),
                    bytes: [0, 1, 8, 1000][rng.gen_range(0..4usize)],
                })
                .collect();
            s.builder.add_node(work, color, list.clone());
            s.homes.push(s.homes.iter().max().map_or(0, |&h| h + 1));
            s.lists.push(list);
        }
        for v in 1..n {
            for u in 0..v {
                if rng.gen_range(0..4u32) == 0 {
                    s.builder.add_edge(u as NodeId, v as NodeId);
                }
            }
        }
        s
    }

    /// The edge-traffic-homed lists of `g` under `colors`, written out by
    /// the definition ([`TaskGraph::recolored`]) with a search
    /// per region.
    fn rehomed_by_search(g: &TaskGraph, colors: &[Color]) -> Vec<Vec<NodeAccess>> {
        g.nodes()
            .map(|u| {
                let mut acc: Vec<NodeAccess> = Vec::new();
                let mut push = |owner: Color, bytes: u64| {
                    if bytes == 0 {
                        return;
                    }
                    match acc.iter_mut().find(|a| a.owner == owner) {
                        Some(a) => a.bytes += bytes,
                        None => acc.push(NodeAccess { owner, bytes }),
                    }
                };
                let mut inbound = 0;
                for &p in g.predecessors(u) {
                    inbound += g.edge_traffic(p, u);
                    push(colors[p as usize], g.edge_traffic(p, u));
                }
                push(colors[u as usize], g.footprint(u) - inbound);
                acc
            })
            .collect()
    }

    #[test]
    fn every_layer_reads_the_lists_homes_and_footprints_its_script_gave() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf1a7_4cc5);
        // Scripts whose first, last, and some middle home has an empty list.
        let mut seen = [0usize; 3];
        for case in 0..500 {
            let s = random_script(&mut rng);
            let g = s.builder.build().expect("forward edges only");
            let n = g.node_count();
            let home_lists: Vec<&Vec<NodeAccess>> = (0..n)
                .filter(|&u| u == 0 || s.homes[u] > s.homes[..u].iter().copied().max().unwrap())
                .map(|u| &s.lists[u])
                .collect();
            let last = home_lists.len() - 1;
            seen[0] += usize::from(home_lists[0].is_empty());
            seen[1] += usize::from(last > 0 && home_lists[last].is_empty());
            seen[2] += usize::from(home_lists[1..last.max(1)].iter().any(|l| l.is_empty()));
            let footprints: Vec<u64> = s
                .lists
                .iter()
                .map(|l| l.iter().map(|a| a.bytes).sum())
                .collect();
            let structure = |layer: &TaskGraph, what: &str| {
                for u in layer.nodes() {
                    let i = u as usize;
                    assert_eq!(
                        layer.home(u),
                        s.homes[i],
                        "case {case}, {what}: home of {u}"
                    );
                    assert_eq!(
                        layer.footprint(u),
                        footprints[i],
                        "case {case}, {what}: footprint of {u}"
                    );
                }
                let homes = s.homes.iter().max().map_or(0, |&h| h as usize + 1);
                assert_eq!(layer.home_count(), homes, "case {case}, {what}");
            };
            let lists = |layer: &TaskGraph| -> Vec<Vec<NodeAccess>> {
                layer.nodes().map(|u| layer.accesses(u).to_vec()).collect()
            };

            structure(&g, "built");
            assert_eq!(lists(&g), s.lists, "case {case}: built");

            let mut stripped = g.clone();
            stripped.strip_colors();
            structure(&stripped, "stripped");
            let localized: Vec<Vec<NodeAccess>> = footprints
                .iter()
                .map(|&bytes| match bytes {
                    0 => Vec::new(),
                    bytes => vec![NodeAccess {
                        owner: Color(0),
                        bytes,
                    }],
                })
                .collect();
            assert_eq!(lists(&stripped), localized, "case {case}: stripped");

            let colors: Vec<Color> = (0..n).map(|_| Color(rng.gen_range(0..4u16))).collect();
            let recolored = g.recolored(&colors);
            structure(&recolored, "recolored");
            assert_eq!(
                lists(&recolored),
                rehomed_by_search(&g, &colors),
                "case {case}: recolored"
            );

            // `recolor` keeps the lists it finds: those re-homed under the
            // builder's colors.
            let built: Vec<Color> = g.nodes().map(|u| g.color(u)).collect();
            let mut rehomed = g.recolored(&built);
            rehomed.recolor(|u, _| colors[u as usize]);
            structure(&rehomed, "re-homed, then recolored");
            assert_eq!(
                lists(&rehomed),
                rehomed_by_search(&g, &built),
                "case {case}: re-homed, then recolored"
            );
            assert!(g.nodes().all(|u| rehomed.color(u) == colors[u as usize]));
        }
        assert!(
            seen.iter().all(|&k| k >= 50),
            "a kind went untested: {seen:?}"
        );
    }
}
