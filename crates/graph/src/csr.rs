//! Compressed Sparse Row graphs (paper Fig. 2).
//!
//! The CSR consists of the offset-pointer array, the neighbor-ID array
//! (*structure* data), and per-vertex data (*property* data, owned by the
//! workloads). Weighted graphs carry one weight per directed edge, stored
//! alongside the neighbor ID exactly as the paper describes ("each entry in
//! the neighbor ID array also includes the weight").

/// A directed graph in CSR form. Vertices are `0..num_vertices` as `u32`.
///
/// # Example
///
/// ```
/// use droplet_graph::CsrBuilder;
/// let g = CsrBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 2).build();
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.neighbors(1), &[2]);
/// let t = g.transpose();
/// assert_eq!(t.neighbors(2), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_vertices: u32,
    offsets: Vec<u64>,
    targets: Vec<u32>,
    weights: Option<Vec<u32>>,
}

impl Csr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The offset-pointer array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The neighbor-ID array — the paper's *structure* data.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Edge weights parallel to [`Csr::targets`], if weighted.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_degree(&self, u: u32) -> u64 {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// The edge-index range of `u`'s neighbor list within the structure array.
    pub fn edge_range(&self, u: u32) -> std::ops::Range<u64> {
        let u = u as usize;
        self.offsets[u]..self.offsets[u + 1]
    }

    /// Out-neighbors of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let r = self.edge_range(u);
        &self.targets[r.start as usize..r.end as usize]
    }

    /// Weights of `u`'s out-edges (parallel to [`Csr::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    pub fn edge_weights(&self, u: u32) -> &[u32] {
        let r = self.edge_range(u);
        &self.weights.as_ref().expect("unweighted graph")[r.start as usize..r.end as usize]
    }

    /// Builds the transpose (all edges reversed), preserving weights.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices as usize;
        let mut counts = vec![0u64; n + 1];
        for &v in &self.targets {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; self.targets.len()];
        let mut weights = self
            .weights
            .as_ref()
            .map(|_| vec![0u32; self.targets.len()]);
        for u in 0..self.num_vertices {
            for i in self.edge_range(u) {
                let v = self.targets[i as usize] as usize;
                let slot = cursor[v] as usize;
                cursor[v] += 1;
                targets[slot] = u;
                if let (Some(w), Some(sw)) = (weights.as_mut(), self.weights.as_ref()) {
                    w[slot] = sw[i as usize];
                }
            }
        }
        Csr {
            num_vertices: self.num_vertices,
            offsets,
            targets,
            weights,
        }
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / f64::from(self.num_vertices)
        }
    }
}

/// Incremental builder that sorts and assembles a [`Csr`].
///
/// Edges may be added in any order; the builder sorts by (source, insertion
/// order) using a counting pass, so construction is O(V + E).
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    num_vertices: u32,
    edges: Vec<(u32, u32)>,
    weights: Option<Vec<u32>>,
    dedup: bool,
}

impl CsrBuilder {
    /// Starts a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        CsrBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: None,
            dedup: false,
        }
    }

    /// Pre-allocates room for `n` edges.
    pub fn with_capacity(num_vertices: u32, n: usize) -> Self {
        let mut b = CsrBuilder::new(num_vertices);
        b.edges.reserve(n);
        b
    }

    /// Adds a directed edge `u -> v`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or if weighted edges were
    /// previously added.
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Adds a directed edge (non-consuming form for loops).
    pub fn push_edge(&mut self, u: u32, v: u32) {
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "edge out of range"
        );
        assert!(
            self.weights.is_none(),
            "mixing weighted and unweighted edges"
        );
        self.edges.push((u, v));
    }

    /// Adds a weighted directed edge.
    pub fn push_weighted_edge(&mut self, u: u32, v: u32, w: u32) {
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "edge out of range"
        );
        assert!(
            self.edges.len() == self.weights.as_ref().map_or(0, Vec::len),
            "mixing weighted and unweighted edges"
        );
        self.edges.push((u, v));
        self.weights.get_or_insert_with(Vec::new).push(w);
    }

    /// Requests removal of duplicate (u, v) pairs and self-loops at build
    /// time.
    ///
    /// For weighted edges, the weight kept for a duplicate pair is *not*
    /// the first one pushed: `build` orders edge indices with the standard
    /// library's `sort_unstable_by_key` on `(u, v)`, and the duplicate that
    /// sort leaves first wins. A toolchain whose unstable sort orders equal
    /// keys differently changes weighted graphs (and SSSP results with
    /// them); the weighted rows of `tests/generator_goldens.rs` catch that.
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Assembles the CSR.
    pub fn build(self) -> Csr {
        let n = self.num_vertices as usize;
        let CsrBuilder {
            num_vertices,
            mut edges,
            mut weights,
            dedup,
        } = self;
        if dedup {
            match weights.as_mut() {
                // Equal pairs are interchangeable, so sorting the pairs in
                // place gives the same edge list as any index sort would,
                // without a random `edges[i]` load per comparison.
                None => {
                    edges.sort_unstable_by_key(|&(u, v)| (u64::from(u) << 32) | u64::from(v));
                    edges.dedup();
                    edges.retain(|&(u, v)| u != v);
                }
                // Sort indices by (u, v) carrying weights along, then retain
                // uniques. This exact sort call decides which duplicate's
                // weight survives (see [`CsrBuilder::dedup`]).
                Some(w) => {
                    let mut idx: Vec<u32> = (0..edges.len() as u32).collect();
                    idx.sort_unstable_by_key(|&i| edges[i as usize]);
                    let mut new_edges = Vec::with_capacity(edges.len());
                    let mut new_weights = Vec::with_capacity(edges.len());
                    let mut last: Option<(u32, u32)> = None;
                    for &i in &idx {
                        let e = edges[i as usize];
                        if e.0 == e.1 || last == Some(e) {
                            continue;
                        }
                        last = Some(e);
                        new_edges.push(e);
                        new_weights.push(w[i as usize]);
                    }
                    edges = new_edges;
                    *w = new_weights;
                }
            }
        }
        let mut counts = vec![0u64; n + 1];
        for &(u, _) in &edges {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        let mut out_weights = weights.as_ref().map(|_| vec![0u32; edges.len()]);
        for (i, &(u, v)) in edges.iter().enumerate() {
            let slot = cursor[u as usize] as usize;
            cursor[u as usize] += 1;
            targets[slot] = v;
            if let (Some(ow), Some(w)) = (out_weights.as_mut(), weights.as_ref()) {
                ow[slot] = w[i];
            }
        }
        Csr {
            num_vertices,
            offsets,
            targets,
            weights: out_weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let g = CsrBuilder::new(4)
            .edge(2, 3)
            .edge(0, 1)
            .edge(0, 3)
            .edge(0, 2)
            .build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 3, 2]); // insertion order within u
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.offsets(), &[0, 3, 3, 4, 4]);
    }

    #[test]
    fn weighted_edges_travel_with_targets() {
        let mut b = CsrBuilder::new(3);
        b.push_weighted_edge(0, 2, 10);
        b.push_weighted_edge(0, 1, 20);
        b.push_weighted_edge(2, 0, 30);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.neighbors(0), &[2, 1]);
        assert_eq!(g.edge_weights(0), &[10, 20]);
        assert_eq!(g.edge_weights(2), &[30]);
    }

    #[test]
    fn dedup_removes_duplicates_and_self_loops() {
        let g = CsrBuilder::new(3)
            .edge(0, 1)
            .edge(0, 1)
            .edge(1, 1)
            .edge(1, 0)
            .dedup()
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = CsrBuilder::new(4).edge(0, 2).edge(1, 2).edge(2, 3).build();
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(3), &[2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.num_edges(), g.num_edges());
    }

    #[test]
    fn transpose_preserves_weights() {
        let mut b = CsrBuilder::new(3);
        b.push_weighted_edge(0, 2, 7);
        b.push_weighted_edge(1, 2, 9);
        let t = b.build().transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.edge_weights(2), &[7, 9]);
    }

    #[test]
    fn double_transpose_is_identity_for_sorted_graphs() {
        let g = CsrBuilder::new(5)
            .edge(0, 1)
            .edge(0, 4)
            .edge(2, 3)
            .edge(4, 0)
            .dedup()
            .build();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let _ = CsrBuilder::new(2).edge(0, 2);
    }

    #[test]
    fn avg_degree() {
        let g = CsrBuilder::new(4).edge(0, 1).edge(1, 2).build();
        assert!((g.avg_degree() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = CsrBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
