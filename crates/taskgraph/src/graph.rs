//! CSR task-graph representation and builder.

use nabbitc_color::Color;

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
/// Nodes are added with their work estimate, color, and memory footprint;
/// edges are added as `(pred, succ)` pairs. [`GraphBuilder::build`] verifies
/// acyclicity and produces the immutable CSR form.
#[derive(Default, Clone)]
pub struct GraphBuilder {
    work: Vec<u64>,
    color: Vec<Color>,
    accesses: Vec<Vec<NodeAccess>>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            work: Vec::with_capacity(nodes),
            color: Vec::with_capacity(nodes),
            accesses: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node and returns its id.
    ///
    /// `work` is the node's computational cost in abstract work units
    /// (`W(u)` in the paper); `color` its locality hint; `accesses` the
    /// memory regions it touches.
    pub fn add_node(&mut self, work: u64, color: Color, accesses: Vec<NodeAccess>) -> NodeId {
        let id = self.work.len() as NodeId;
        self.work.push(work);
        self.color.push(color);
        self.accesses.push(accesses);
        id
    }

    /// Convenience: node with a single access to its own color's region.
    pub fn add_simple_node(&mut self, work: u64, color: Color, bytes: u64) -> NodeId {
        self.add_node(
            work,
            color,
            vec![NodeAccess {
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
    /// once per duplicated pair). An empty vector means
    /// [`build`](Self::build) can only fail with [`GraphError::Cycle`]
    /// (acyclicity needs the finished CSR and is checked by `build`).
    ///
    /// `build` fails with exactly the first entry of this list whenever
    /// it is non-empty, so collecting front ends (`graphlint`) and the
    /// fail-fast builder always agree on error priority.
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
        for &(u, v) in &self.edges {
            if u as usize >= n {
                errors.push(GraphError::InvalidNode(u));
            }
            if v as usize >= n {
                errors.push(GraphError::InvalidNode(v));
            }
        }

        // Duplicate-edge detection via sort; equal pairs are adjacent
        // after sorting, so the `last` comparison reports each duplicated
        // pair once no matter how many copies were added.
        let mut sorted = self.edges.clone();
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

    /// Finalizes the graph, checking edge validity and acyclicity.
    ///
    /// Fails with the first error [`check`](Self::check) collects; use
    /// `check` to see all of them at once.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if let Some(first) = self.check().into_iter().next() {
            return Err(first);
        }
        let n = self.work.len();

        // CSR for successors and predecessors.
        let m = self.edges.len();
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
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

        let g = TaskGraph {
            work: self.work,
            color: self.color,
            accesses: self.accesses,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            topo: Vec::new(),
        };
        let topo = g.compute_topo_order()?;
        Ok(TaskGraph { topo, ..g })
    }
}

/// An immutable task graph in CSR form.
///
/// Nodes are identified by dense [`NodeId`]s. Both predecessor and successor
/// adjacency are stored so that executors can walk dependences in either
/// direction (Nabbit explores predecessors on demand and notifies
/// successors).
#[derive(Clone)]
pub struct TaskGraph {
    work: Vec<u64>,
    color: Vec<Color>,
    accesses: Vec<Vec<NodeAccess>>,
    succ_off: Vec<u32>,
    succ_adj: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred_adj: Vec<NodeId>,
    topo: Vec<NodeId>,
}

impl TaskGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.work.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ_adj.len()
    }

    /// Work `W(u)` of a node.
    #[inline]
    pub fn work(&self, u: NodeId) -> u64 {
        self.work[u as usize]
    }

    /// Locality color of a node.
    #[inline]
    pub fn color(&self, u: NodeId) -> Color {
        self.color[u as usize]
    }

    /// Memory accesses of a node.
    #[inline]
    pub fn accesses(&self, u: NodeId) -> &[NodeAccess] {
        &self.accesses[u as usize]
    }

    /// Successors of `u` (nodes that depend on `u`).
    #[inline]
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.succ_off[u as usize], self.succ_off[u as usize + 1]);
        &self.succ_adj[a as usize..b as usize]
    }

    /// Predecessors of `u` (nodes `u` depends on).
    #[inline]
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        let (a, b) = (self.pred_off[u as usize], self.pred_off[u as usize + 1]);
        &self.pred_adj[a as usize..b as usize]
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
        &self.topo
    }

    /// Overrides every node's color. Used by the bad/invalid coloring
    /// experiments (Tables II and III) without rebuilding the graph.
    pub fn recolor(&mut self, mut f: impl FnMut(NodeId, Color) -> Color) {
        for u in 0..self.color.len() {
            self.color[u] = f(u as NodeId, self.color[u]);
        }
    }

    /// Total bytes touched by a node.
    pub fn footprint(&self, u: NodeId) -> u64 {
        self.accesses[u as usize].iter().map(|a| a.bytes).sum()
    }

    /// Erases all coloring information: every node becomes `Color(0)` and
    /// its accesses are re-homed there — the canonical "user handed us an
    /// uncolored graph" form consumed by the autocolor assigners.
    pub fn strip_colors(&mut self) {
        self.recolor(|_, _| Color(0));
        self.localize_accesses();
    }

    /// Bytes assumed to travel along the dependence edge `p -> u`: the
    /// producer's footprint split evenly among its consumers, capped by
    /// the consumer's even share of its own footprint.
    ///
    /// This is the workspace's shared *edge-traffic model* — the bytes a
    /// cross-color edge moves across domains, priced by
    /// `nabbitc_cost::CostModel::remote_excess` in the makespan
    /// estimator, the autocolor refinement gain, and (through
    /// [`rehome_edge_traffic`](Self::rehome_edge_traffic)) the NUMA
    /// simulator. The cap guarantees `Σ_p edge_traffic(p, u) ≤
    /// footprint(u)`, so a node's inbound traffic never exceeds the bytes
    /// it actually touches.
    ///
    /// One-edge convenience over [`EdgeTraffic`], which defines the model:
    /// each call sums both endpoints' access lists, so anything that
    /// walks edges builds the view once and calls
    /// [`EdgeTraffic::traffic`] instead.
    pub fn edge_traffic(&self, p: NodeId, u: NodeId) -> u64 {
        NodeShares::of(self, p)
            .out_share
            .min(NodeShares::of(self, u).in_share)
    }

    /// Re-homes every node's accesses under its *current* color using the
    /// [`edge_traffic`](Self::edge_traffic) model: each node reads its
    /// predecessors' outputs from the predecessors' regions and the rest
    /// of its footprint from its own region (first-touch by the owning
    /// worker). Total bytes per node are preserved, so serial baselines
    /// are unaffected; only the local/remote split changes.
    ///
    /// This is the placement model behind every recolored simulation
    /// (`nabbitc-numasim::simulate_ws_recolored`) and applied assignment:
    /// it makes a cross-color dependence edge carry real remote-byte
    /// traffic, matching what the bandwidth-aware makespan estimator
    /// charges — simulator and estimator price the same model. Compare
    /// [`localize_accesses`](Self::localize_accesses), which models a
    /// placement with no inter-node reads at all.
    pub fn rehome_edge_traffic(&mut self) {
        let traffic = EdgeTraffic::of(self);
        let n = self.node_count();
        // Bytes per owner color of the node in hand (zero between
        // nodes), and the owners in the order they first got any: a
        // node's region list is written once, with no search per edge.
        let colors = self.color.iter().map(|c| c.0 as usize + 1).max();
        let mut owned = vec![0u64; colors.unwrap_or(0)];
        let mut owners: Vec<Color> = Vec::new();
        let mut rehomed: Vec<Vec<NodeAccess>> = Vec::with_capacity(n);
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
            let regions = owners.drain(..).map(|owner| NodeAccess {
                owner,
                bytes: std::mem::take(&mut owned[owner.0 as usize]),
            });
            rehomed.push(regions.collect());
        }
        self.accesses = rehomed;
    }

    /// Re-homes every node's accesses to the node's *current* color,
    /// merging them into one region of the same total size.
    ///
    /// This models first-touch placement under a fresh coloring with no
    /// inter-node reads: the worker that owns a node initializes and
    /// exclusively touches the data. It is the canonical "uncolored
    /// graph" form ([`strip_colors`](Self::strip_colors)); recolored
    /// *simulations* use [`rehome_edge_traffic`](Self::rehome_edge_traffic)
    /// instead, which keeps dependence edges carrying byte traffic.
    pub fn localize_accesses(&mut self) {
        for u in 0..self.accesses.len() {
            let bytes: u64 = self.accesses[u].iter().map(|a| a.bytes).sum();
            let owner = self.color[u];
            self.accesses[u] = if bytes > 0 {
                vec![NodeAccess { owner, bytes }]
            } else {
                Vec::new()
            };
        }
    }

    fn compute_topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let n = self.node_count();
        let mut indeg: Vec<u32> = (0..n).map(|u| self.in_degree(u as NodeId) as u32).collect();
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
/// built once in O(V + accesses) so that edge walks — the makespan
/// estimator, the autocolor sweep and refinement gain,
/// [`TaskGraph::rehome_edge_traffic`], the traffic matrices and the
/// hot-edge lint — price an edge with two loads and a `min` instead of
/// re-summing both endpoints' access lists.
///
/// Two per-node vectors, deliberately not a per-edge array: the
/// per-edge value is `min(out_share[p], in_share[u])`, and on a
/// million-edge graph an 8-byte-per-edge table would cost as much memory
/// as the graph's own adjacency. (A node's footprint itself is needed
/// once per node, not per edge: [`TaskGraph::footprint`] serves that.)
///
/// The view is a snapshot: it depends on footprints and degrees only
/// (both invariant under recoloring and re-homing), not on colors.
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

    #[test]
    fn localize_accesses_rehomes_to_node_color() {
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
        g.localize_accesses();
        assert_eq!(
            g.accesses(0),
            &[NodeAccess {
                owner: Color(2),
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
        let mut g = b.build().unwrap();
        let before = EdgeTraffic::of(&g);
        g.rehome_edge_traffic();
        g.rehome_edge_traffic(); // idempotent on footprints and degrees
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
        let mut g = diamond(); // colors 0,1,2,3; footprints 64 each
        g.rehome_edge_traffic();
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
        let mut g = b.build().unwrap();
        g.rehome_edge_traffic();
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
}
