//! The materialized visibility graph: the naive oracle.

use obstacle_geom::{Point, Polygon, Segment};

/// Index of a node within a [`VisibilityGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an obstacle within a [`VisibilityGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObstacleId(pub u32);

/// What a graph node represents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeKind {
    /// A vertex of an obstacle polygon.
    ObstacleVertex {
        /// The obstacle the vertex belongs to.
        obstacle: ObstacleId,
        /// Vertex index within the polygon.
        vertex: u32,
    },
    /// A free point: a query point or an entity ("add entity" in the
    /// paper). Tagged with a caller-chosen identifier.
    Waypoint {
        /// Caller-assigned tag (e.g. the entity id).
        tag: u64,
    },
}

#[derive(Clone, Debug)]
struct NodeData {
    pos: Point,
    kind: NodeKind,
    alive: bool,
}

#[derive(Clone, Debug)]
struct ObstacleSlot {
    poly: Polygon,
    /// External identifier (e.g. the obstacle dataset object id).
    tag: u64,
}

/// A visibility graph over polygonal obstacles and free waypoints with
/// every edge materialized by the naive pairwise test
/// ([`Polygon::blocks_segment`] against every obstacle, O(n·m) per node
/// for m obstacle edges). It shares no code with the rotational sweep,
/// which is what makes it the oracle the sweep-driven
/// [`LazyScene`](crate::LazyScene) is tested against.
///
/// Edge weights are Euclidean segment lengths, so shortest paths in the
/// graph are exactly the obstructed shortest paths of the paper (by the
/// Lozano-Pérez/Wesley theorem \[LW79\], shortest obstacle-avoiding paths
/// only turn at obstacle vertices).
///
/// The obstacle set is fixed at [`build`](VisibilityGraph::build);
/// waypoints support the full add/remove lifecycle.
#[derive(Clone, Debug, Default)]
pub struct VisibilityGraph {
    nodes: Vec<NodeData>,
    adj: Vec<Vec<(NodeId, f64)>>,
    obstacles: Vec<ObstacleSlot>,
}

impl VisibilityGraph {
    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Number of undirected edges between live nodes.
    pub fn edge_count(&self) -> usize {
        let total: usize = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| self.adj[i].len())
            .sum();
        total / 2
    }

    /// Number of obstacles.
    pub fn obstacle_count(&self) -> usize {
        self.obstacles.len()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[id.0 as usize].pos
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0 as usize].kind
    }

    /// Neighbours of a node with edge weights.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, f64)] {
        &self.adj[id.0 as usize]
    }

    /// Total number of node slots (live and dead); valid upper bound for
    /// dense per-node arrays in graph algorithms.
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over obstacles as `(id, tag, polygon)`.
    pub fn obstacles(&self) -> impl Iterator<Item = (ObstacleId, u64, &Polygon)> {
        self.obstacles
            .iter()
            .enumerate()
            .map(|(i, o)| (ObstacleId(i as u32), o.tag, &o.poly))
    }

    /// Builds the graph of a set of obstacles `(polygon, tag)` and
    /// waypoints `(position, tag)`; returns it with the waypoints' node
    /// ids in input order.
    pub fn build(
        obstacles: impl IntoIterator<Item = (Polygon, u64)>,
        waypoints: impl IntoIterator<Item = (Point, u64)>,
    ) -> (Self, Vec<NodeId>) {
        let mut g = VisibilityGraph::default();
        // Register everything first (no edge computation yet).
        for (poly, tag) in obstacles {
            let obstacle = ObstacleId(g.obstacles.len() as u32);
            for (vi, &v) in poly.vertices().iter().enumerate() {
                let vertex = vi as u32;
                g.push_raw_node(v, NodeKind::ObstacleVertex { obstacle, vertex });
            }
            g.obstacles.push(ObstacleSlot { poly, tag });
        }
        let waypoint_ids = waypoints
            .into_iter()
            .map(|(pos, tag)| g.push_raw_node(pos, NodeKind::Waypoint { tag }))
            .collect();
        // One visibility pass per node, adding each undirected edge once
        // (from the lower-indexed endpoint).
        for i in 0..g.nodes.len() {
            for j in g.visible_nodes_from(NodeId(i as u32)) {
                if j.0 as usize > i {
                    g.insert_edge(NodeId(i as u32), j);
                }
            }
        }
        (g, waypoint_ids)
    }

    /// Adds a free waypoint (paper: *add_entity*) and connects it to every
    /// visible node. Returns its node id.
    pub fn add_waypoint(&mut self, pos: Point, tag: u64) -> NodeId {
        let id = self.push_raw_node(pos, NodeKind::Waypoint { tag });
        for j in self.visible_nodes_from(id) {
            self.insert_edge(id, j);
        }
        id
    }

    /// Removes a waypoint (paper: *delete_entity*), dropping its incident
    /// edges. Panics if `id` is an obstacle vertex.
    pub fn remove_waypoint(&mut self, id: NodeId) {
        assert!(
            matches!(self.nodes[id.0 as usize].kind, NodeKind::Waypoint { .. }),
            "remove_waypoint on an obstacle vertex"
        );
        let neighbours: Vec<NodeId> = self.adj[id.0 as usize].iter().map(|(n, _)| *n).collect();
        for n in neighbours {
            let a = &mut self.adj[n.0 as usize];
            if let Some(i) = a.iter().position(|(m, _)| *m == id) {
                a.swap_remove(i);
            }
        }
        self.adj[id.0 as usize].clear();
        self.nodes[id.0 as usize].alive = false;
    }

    fn push_raw_node(&mut self, pos: Point, kind: NodeKind) -> NodeId {
        self.nodes.push(NodeData {
            pos,
            kind,
            alive: true,
        });
        self.adj.push(Vec::new());
        NodeId((self.nodes.len() - 1) as u32)
    }

    fn insert_edge(&mut self, a: NodeId, b: NodeId) {
        debug_assert_ne!(a, b);
        let w = self.nodes[a.0 as usize]
            .pos
            .dist(self.nodes[b.0 as usize].pos);
        self.adj[a.0 as usize].push((b, w));
        self.adj[b.0 as usize].push((a, w));
    }

    /// Live nodes other than `id` visible from it.
    fn visible_nodes_from(&self, id: NodeId) -> Vec<NodeId> {
        let p = self.nodes[id.0 as usize].pos;
        let mut out = Vec::new();
        for (j, nd) in self.nodes.iter().enumerate() {
            if j == id.0 as usize || !nd.alive {
                continue;
            }
            if self.visible_naive(p, nd.pos) {
                out.push(NodeId(j as u32));
            }
        }
        out
    }

    /// The authoritative pairwise visibility test: the segment must not
    /// pass through any obstacle's interior.
    pub fn visible_naive(&self, a: Point, b: Point) -> bool {
        if a == b {
            return true;
        }
        let s = Segment::new(a, b);
        !self.obstacles.iter().any(|o| o.poly.blocks_segment(s))
    }

    /// Exhaustive structural check (tests): adjacency symmetry, weights
    /// equal to Euclidean distances, no edges incident to dead nodes, and
    /// — when `check_semantics` — every edge is actually unblocked and
    /// every unblocked node pair is an edge (per the naive oracle).
    pub fn validate(&self, check_semantics: bool) -> Result<(), String> {
        for (i, nd) in self.nodes.iter().enumerate() {
            if !nd.alive && !self.adj[i].is_empty() {
                return Err(format!("dead node {i} has edges"));
            }
            for &(j, w) in &self.adj[i] {
                let jd = &self.nodes[j.0 as usize];
                if !jd.alive {
                    return Err(format!("edge {i} -> dead node {}", j.0));
                }
                let expect = nd.pos.dist(jd.pos);
                if (w - expect).abs() > 1e-9 {
                    return Err(format!("edge {i}-{} weight {w} != {expect}", j.0));
                }
                if !self.adj[j.0 as usize]
                    .iter()
                    .any(|(k, _)| k.0 as usize == i)
                {
                    return Err(format!("edge {i}-{} not symmetric", j.0));
                }
            }
        }
        if check_semantics {
            let live: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].alive)
                .collect();
            for (a_idx, &i) in live.iter().enumerate() {
                for &j in &live[a_idx + 1..] {
                    let pa = self.nodes[i].pos;
                    let pb = self.nodes[j].pos;
                    let has_edge = self.adj[i].iter().any(|(n, _)| n.0 as usize == j);
                    let visible = self.visible_naive(pa, pb);
                    if has_edge != visible {
                        return Err(format!(
                            "edge {i}-{j} present={has_edge} but visible={visible} ({pa} -> {pb})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}
