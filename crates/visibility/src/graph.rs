//! The dynamic visibility graph.

use crate::sweep::{self, PointClass};
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

/// Which algorithm computes visibility edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EdgeBuilder {
    /// Pairwise checks against every obstacle: O(n·m) per node, where m is
    /// the total number of obstacle edges. The correctness oracle.
    Naive,
    /// Rotational plane sweep \[SS84\]: O(n log n) per node. The builder
    /// used by the paper (and by default here).
    #[default]
    RotationalSweep,
}

#[derive(Clone, Debug)]
struct NodeData {
    pos: Point,
    kind: NodeKind,
    alive: bool,
    /// Cached pivot-independent classification against the current
    /// obstacle set (see [`sweep::classify`]), maintained for
    /// **waypoints** only; obstacle-vertex classifications live in their
    /// [`ObstacleSlot`] so the sweep can borrow them as slices.
    class: PointClass,
}

#[derive(Clone, Debug)]
struct ObstacleSlot {
    poly: Polygon,
    /// External identifier (e.g. the obstacle dataset object id); used by
    /// the query processor to test set membership cheaply.
    tag: u64,
    /// Node ids of this obstacle's vertices, in polygon order.
    nodes: Vec<NodeId>,
    /// Per-vertex classifications (parallel to `poly.vertices()`).
    vertex_class: Vec<PointClass>,
}

/// A visibility graph over polygonal obstacles and free waypoints.
///
/// Edge weights are Euclidean segment lengths, so shortest paths in the
/// graph are exactly the obstructed shortest paths of the paper (by the
/// Lozano-Pérez/Wesley theorem \[LW79\], shortest obstacle-avoiding paths
/// only turn at obstacle vertices).
///
/// Obstacles are permanent once added (the paper's local graphs only ever
/// grow); waypoints support the full add/remove lifecycle.
#[derive(Clone, Debug, Default)]
pub struct VisibilityGraph {
    builder: EdgeBuilder,
    nodes: Vec<NodeData>,
    adj: Vec<Vec<(NodeId, f64)>>,
    obstacles: Vec<ObstacleSlot>,
}

impl VisibilityGraph {
    /// Creates an empty graph using the given edge builder.
    pub fn new(builder: EdgeBuilder) -> Self {
        VisibilityGraph {
            builder,
            ..Default::default()
        }
    }

    /// The edge builder in use.
    pub fn builder(&self) -> EdgeBuilder {
        self.builder
    }

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

    /// Whether the node id refers to a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.0 as usize)
            .map(|n| n.alive)
            .unwrap_or(false)
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

    /// Whether an obstacle with external tag `tag` is present.
    pub fn has_obstacle_tag(&self, tag: u64) -> bool {
        self.obstacles.iter().any(|o| o.tag == tag)
    }

    /// Iterator over obstacles as `(id, tag, polygon)`.
    pub fn obstacles(&self) -> impl Iterator<Item = (ObstacleId, u64, &Polygon)> {
        self.obstacles
            .iter()
            .enumerate()
            .map(|(i, o)| (ObstacleId(i as u32), o.tag, &o.poly))
    }

    /// The polygon of an obstacle.
    pub fn obstacle_polygon(&self, id: ObstacleId) -> &Polygon {
        &self.obstacles[id.0 as usize].poly
    }

    // -----------------------------------------------------------------
    // Dynamic maintenance (the paper's add_obstacle / add_entity /
    // delete_entity operations)
    // -----------------------------------------------------------------

    /// Adds an obstacle polygon (paper: *add_obstacle*).
    ///
    /// Removes every existing edge that crosses the new polygon's interior,
    /// updates all cached point classifications, then connects the
    /// polygon's vertices to all visible nodes.
    pub fn add_obstacle(&mut self, poly: Polygon, tag: u64) -> ObstacleId {
        // 1. Edges blocked by the newcomer disappear. Only the new polygon
        //    can invalidate existing edges (they were mutually visible
        //    before), so one blocks_segment test per edge suffices.
        let node_n = self.nodes.len();
        for a in 0..node_n {
            if !self.nodes[a].alive {
                continue;
            }
            let pa = self.nodes[a].pos;
            let removed: Vec<NodeId> = self.adj[a]
                .iter()
                .filter(|(b, _)| b.0 as usize > a)
                .filter(|(b, _)| {
                    let pb = self.nodes[b.0 as usize].pos;
                    poly.blocks_segment(Segment::new(pa, pb))
                })
                .map(|(b, _)| *b)
                .collect();
            for b in removed {
                self.remove_edge(NodeId(a as u32), b);
            }
        }

        // 2. The newcomer may add boundary attachments (or interior
        //    containment) to every existing classification.
        let new_idx = self.obstacles.len();
        for slot in &mut self.obstacles {
            for (vi, class) in slot.vertex_class.iter_mut().enumerate() {
                sweep::classify_incremental(class, new_idx, &poly, slot.poly.vertices()[vi]);
            }
        }
        for node in &mut self.nodes {
            if node.alive && matches!(node.kind, NodeKind::Waypoint { .. }) {
                sweep::classify_incremental(&mut node.class, new_idx, &poly, node.pos);
            }
        }

        // 3. Register the obstacle, its vertex classifications and nodes.
        let ob_id = ObstacleId(new_idx as u32);
        let scene: Vec<&Polygon> = self.obstacles.iter().map(|o| &o.poly).collect();
        let vertex_class: Vec<PointClass> = poly
            .vertices()
            .iter()
            .enumerate()
            .map(|(vi, &v)| {
                let mut c = sweep::classify(&scene, v);
                sweep::classify_incremental(&mut c, new_idx, &poly, v);
                debug_assert!(c
                    .attachments
                    .contains(&(new_idx, obstacle_geom::BoundaryAttachment::Vertex(vi))));
                c
            })
            .collect();
        drop(scene);
        let mut node_ids = Vec::with_capacity(poly.len());
        for (vi, &v) in poly.vertices().iter().enumerate() {
            let id = self.push_raw_node(
                v,
                NodeKind::ObstacleVertex {
                    obstacle: ob_id,
                    vertex: vi as u32,
                },
                PointClass::default(), // vertex classes live in the slot
            );
            node_ids.push(id);
        }
        self.obstacles.push(ObstacleSlot {
            poly,
            tag,
            nodes: node_ids.clone(),
            vertex_class,
        });

        // 4. Connect each new vertex to everything it can see (including
        //    its polygon siblings — boundary edges are never blocked).
        for &id in &node_ids {
            self.connect_node(id);
        }
        ob_id
    }

    /// Adds a free waypoint (paper: *add_entity*) and connects it to every
    /// visible node. Returns its node id.
    pub fn add_waypoint(&mut self, pos: Point, tag: u64) -> NodeId {
        let scene: Vec<&Polygon> = self.obstacles.iter().map(|o| &o.poly).collect();
        let class = sweep::classify(&scene, pos);
        drop(scene);
        let id = self.push_raw_node(pos, NodeKind::Waypoint { tag }, class);
        self.connect_node(id);
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

    // -----------------------------------------------------------------
    // Bulk construction
    // -----------------------------------------------------------------

    /// Builds a graph from a set of obstacles and waypoints
    /// `(position, tag)` in one pass: one visibility computation per node
    /// over the complete scene (classifications are computed once).
    pub fn build(
        builder: EdgeBuilder,
        obstacles: impl IntoIterator<Item = (Polygon, u64)>,
        waypoints: impl IntoIterator<Item = (Point, u64)>,
    ) -> (Self, Vec<NodeId>) {
        let mut g = VisibilityGraph::new(builder);
        // Register everything first (no edge computation yet).
        for (poly, tag) in obstacles {
            let ob_id = ObstacleId(g.obstacles.len() as u32);
            let mut node_ids = Vec::with_capacity(poly.len());
            for (vi, &v) in poly.vertices().iter().enumerate() {
                let id = g.push_raw_node(
                    v,
                    NodeKind::ObstacleVertex {
                        obstacle: ob_id,
                        vertex: vi as u32,
                    },
                    PointClass::default(),
                );
                node_ids.push(id);
            }
            g.obstacles.push(ObstacleSlot {
                poly,
                tag,
                nodes: node_ids,
                vertex_class: Vec::new(), // filled below
            });
        }
        let mut waypoint_ids = Vec::new();
        for (pos, tag) in waypoints {
            waypoint_ids.push(g.push_raw_node(
                pos,
                NodeKind::Waypoint { tag },
                PointClass::default(),
            ));
        }
        // Classify every point once against the complete scene.
        {
            let polys: Vec<Polygon> = g.obstacles.iter().map(|o| o.poly.clone()).collect();
            let scene: Vec<&Polygon> = polys.iter().collect();
            for slot in &mut g.obstacles {
                slot.vertex_class = slot
                    .poly
                    .vertices()
                    .iter()
                    .map(|&v| sweep::classify(&scene, v))
                    .collect();
            }
            for node in &mut g.nodes {
                if matches!(node.kind, NodeKind::Waypoint { .. }) {
                    node.class = sweep::classify(&scene, node.pos);
                }
            }
        }
        // Compute edges: one visibility pass per node, adding each
        // undirected edge once (from the lower-indexed endpoint).
        for i in 0..g.nodes.len() {
            let vis = g.visible_nodes_from(NodeId(i as u32));
            for j in vis {
                if j.0 as usize > i {
                    g.insert_edge(NodeId(i as u32), j);
                }
            }
        }
        (g, waypoint_ids)
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn push_raw_node(&mut self, pos: Point, kind: NodeKind, class: PointClass) -> NodeId {
        self.nodes.push(NodeData {
            pos,
            kind,
            alive: true,
            class,
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

    fn remove_edge(&mut self, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            let v = &mut self.adj[x.0 as usize];
            if let Some(i) = v.iter().position(|(n, _)| *n == y) {
                v.swap_remove(i);
            }
        }
    }

    /// Connects `id` to all currently visible live nodes (idempotent:
    /// edges already present — e.g. to sibling vertices connected when
    /// *they* were processed — are not duplicated).
    fn connect_node(&mut self, id: NodeId) {
        let vis = self.visible_nodes_from(id);
        for j in vis {
            if j != id && !self.adj[id.0 as usize].iter().any(|(n, _)| *n == j) {
                self.insert_edge(id, j);
            }
        }
    }

    /// Live nodes visible from `id`, per the configured builder.
    fn visible_nodes_from(&self, id: NodeId) -> Vec<NodeId> {
        match self.builder {
            EdgeBuilder::Naive => self.visible_nodes_naive(id),
            EdgeBuilder::RotationalSweep => self.visible_nodes_sweep(id),
        }
    }

    fn visible_nodes_naive(&self, id: NodeId) -> Vec<NodeId> {
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

    fn visible_nodes_sweep(&self, id: NodeId) -> Vec<NodeId> {
        let pivot_data = &self.nodes[id.0 as usize];
        let pivot = pivot_data.pos;
        let scene: Vec<&Polygon> = self.obstacles.iter().map(|o| &o.poly).collect();
        let vertex_class: Vec<&[PointClass]> = self
            .obstacles
            .iter()
            .map(|o| o.vertex_class.as_slice())
            .collect();

        let pivot_vertex = match pivot_data.kind {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                Some((obstacle.0 as usize, vertex as usize))
            }
            NodeKind::Waypoint { .. } => None,
        };
        let pivot_class: &PointClass = match pivot_data.kind {
            NodeKind::ObstacleVertex { obstacle, vertex } => {
                &self.obstacles[obstacle.0 as usize].vertex_class[vertex as usize]
            }
            NodeKind::Waypoint { .. } => &pivot_data.class,
        };

        let mut free_points: Vec<Point> = Vec::new();
        let mut free_class: Vec<&PointClass> = Vec::new();
        let mut free_ids: Vec<NodeId> = Vec::new();
        for (j, nd) in self.nodes.iter().enumerate() {
            if !nd.alive || j == id.0 as usize {
                continue;
            }
            if let NodeKind::Waypoint { .. } = nd.kind {
                free_points.push(nd.pos);
                free_class.push(&nd.class);
                free_ids.push(NodeId(j as u32));
            }
        }

        let vis = sweep::visible_set_prepared(
            &scene,
            pivot,
            pivot_class,
            pivot_vertex,
            &free_points,
            &free_class,
            &vertex_class,
        );

        let mut out = Vec::new();
        for (si, slot) in self.obstacles.iter().enumerate() {
            for (vi, &nid) in slot.nodes.iter().enumerate() {
                if nid == id || !self.nodes[nid.0 as usize].alive {
                    continue;
                }
                if vis.vertices[si][vi] {
                    out.push(nid);
                }
            }
        }
        for (fi, &nid) in free_ids.iter().enumerate() {
            if vis.free[fi] {
                out.push(nid);
            }
        }
        out
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
