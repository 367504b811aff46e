//! 2D mesh topology with dimension-order routing and link contention.

use tcc_types::snap::{SnapError, SnapReader, SnapWriter};
use tcc_types::{Cycle, NodeId};

/// Interconnect timing parameters.
///
/// The defaults correspond to Table 2 of the paper: a 2D grid with a
/// 4-cycle link latency (Figure 8 sweeps 1–8 cycles per hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Pipeline latency of one hop, in cycles ("cycles per hop" in
    /// Figure 8).
    pub link_latency: u64,
    /// Link bandwidth in bytes per cycle; a message occupies each link on
    /// its path for `ceil(size / bytes_per_cycle)` cycles.
    pub bytes_per_cycle: u32,
    /// Fixed latency for messages that stay within a node (processor to
    /// co-located directory).
    pub local_latency: u64,
    /// Add wrap-around links in both dimensions (a 2D torus instead of
    /// the paper's plain grid), halving worst-case hop counts. An
    /// extension study — the paper's Table 2 machine is a grid.
    pub torus: bool,
}

impl Default for NetworkConfig {
    fn default() -> NetworkConfig {
        NetworkConfig {
            link_latency: 4,
            bytes_per_cycle: 8,
            local_latency: 2,
            torus: false,
        }
    }
}

/// The four mesh directions, used to index a node's output links.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

/// A near-square 2D mesh with XY (dimension-order) routing.
///
/// Each directed link tracks the cycle at which it next becomes free;
/// a message walking its path claims each link in order, so concurrent
/// messages through the same link serialize. Because the simulation's
/// event queue delivers sends in global time order, this eager
/// path-walking is causally consistent.
#[derive(Debug)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
    n_nodes: usize,
    config: NetworkConfig,
    /// `links[node * 4 + direction]` = earliest cycle the link is free.
    link_free: Vec<Cycle>,
}

impl Mesh2D {
    /// Builds a mesh for `n_nodes` nodes, arranged as the most square
    /// grid whose area covers them (e.g. 12 nodes → 4×3).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn new(n_nodes: usize, config: NetworkConfig) -> Mesh2D {
        assert!(n_nodes > 0, "mesh must have at least one node");
        let cols = (n_nodes as f64).sqrt().ceil() as usize;
        let rows = n_nodes.div_ceil(cols);
        // Routers exist at every grid position, even when the last row is
        // only partially populated with nodes, so XY routes may cross them.
        Mesh2D {
            cols,
            rows,
            n_nodes,
            config,
            link_free: vec![Cycle::ZERO; cols * rows * 4],
        }
    }

    /// The grid dimensions `(columns, rows)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    fn pos(&self, n: NodeId) -> (usize, usize) {
        let i = n.index();
        debug_assert!(i < self.n_nodes, "node {n} outside mesh");
        (i % self.cols, i / self.cols)
    }

    fn id_at(&self, x: usize, y: usize) -> usize {
        y * self.cols + x
    }

    /// Signed per-dimension step toward `to` (torus picks the shorter
    /// way around; ties go the positive direction).
    fn step(&self, from: usize, to: usize, extent: usize) -> isize {
        if from == to {
            return 0;
        }
        if !self.config.torus {
            return if to > from { 1 } else { -1 };
        }
        let fwd = (to + extent - from) % extent;
        let back = (from + extent - to) % extent;
        if fwd <= back {
            1
        } else {
            -1
        }
    }

    /// Distance along one dimension (wrap-aware on a torus).
    fn dim_dist(&self, a: usize, b: usize, extent: usize) -> u64 {
        let d = a.abs_diff(b);
        if self.config.torus {
            d.min(extent - d) as u64
        } else {
            d as u64
        }
    }

    /// Hop count between two nodes (0 for a node to itself): Manhattan
    /// distance on the grid, wrap-aware on a torus.
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.pos(a);
        let (bx, by) = self.pos(b);
        self.dim_dist(ax, bx, self.cols) + self.dim_dist(ay, by, self.rows)
    }

    /// Serialization delay of a message of `size` bytes on one link.
    fn ser_cycles(&self, size: u32) -> u64 {
        u64::from(size.div_ceil(self.config.bytes_per_cycle)).max(1)
    }

    /// Routes a message of `size` bytes from `src` to `dst`, injected at
    /// `now`. Claims each link along the XY path in order (modelling
    /// contention) and returns the delivery time.
    ///
    /// Messages with `src == dst` pay only
    /// [`NetworkConfig::local_latency`].
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, size: u32) -> Cycle {
        if src == dst {
            return now + self.config.local_latency;
        }
        let ser = self.ser_cycles(size);
        let (mut x, mut y) = self.pos(src);
        let (dx, dy) = self.pos(dst);
        let mut t = now;
        // X dimension first, then Y (deadlock-free dimension-order
        // route); on a torus each dimension takes the shorter way
        // around, using the same four per-node links (the wrap link of
        // the edge node in that direction).
        while x != dx {
            let step = self.step(x, dx, self.cols);
            let dir = if step > 0 { EAST } else { WEST };
            t = self.cross_link(self.id_at(x, y), dir, t, ser);
            x = (x as isize + step).rem_euclid(self.cols as isize) as usize;
        }
        while y != dy {
            let step = self.step(y, dy, self.rows);
            let dir = if step > 0 { SOUTH } else { NORTH };
            t = self.cross_link(self.id_at(x, y), dir, t, ser);
            y = (y as isize + step).rem_euclid(self.rows as isize) as usize;
        }
        t
    }

    /// Claims the `dir` output link of node `node` for `ser` cycles
    /// starting no earlier than `arrive`; returns when the head of the
    /// message reaches the next router.
    fn cross_link(&mut self, node: usize, dir: usize, arrive: Cycle, ser: u64) -> Cycle {
        let slot = &mut self.link_free[node * 4 + dir];
        let start = arrive.max(*slot);
        *slot = start + ser;
        start + ser + self.config.link_latency
    }

    /// Uncontended latency of a `size`-byte message over `hops` hops.
    ///
    /// Useful for analytical checks; [`Mesh2D::send`] will return exactly
    /// this when the path is idle.
    #[must_use]
    pub fn uncontended_latency(&self, hops: u64, size: u32) -> u64 {
        hops * (self.ser_cycles(size) + self.config.link_latency)
    }

    /// Serializes the per-link next-free cycles — the mesh's only
    /// mutable state — for checkpointing.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.link_free);
    }

    /// Overwrites the per-link occupancy with a checkpointed copy.
    ///
    /// # Errors
    ///
    /// Any decode failure, or a link count from a differently shaped
    /// mesh (the count is fixed by the grid dimensions).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let link_free: Vec<Cycle> = r.get()?;
        if link_free.len() != self.link_free.len() {
            return Err(SnapError::invalid(
                "Network.mesh",
                "link state from a differently shaped mesh",
            ));
        }
        self.link_free = link_free;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_types::rng::SmallRng;

    fn cfg() -> NetworkConfig {
        NetworkConfig {
            link_latency: 3,
            bytes_per_cycle: 8,
            local_latency: 2,
            torus: false,
        }
    }

    fn torus_cfg() -> NetworkConfig {
        NetworkConfig {
            torus: true,
            ..cfg()
        }
    }

    #[test]
    fn torus_halves_corner_distances() {
        let grid = Mesh2D::new(16, cfg());
        let torus = Mesh2D::new(16, torus_cfg());
        // Corner to corner on a 4x4: 6 hops on the grid, 2 on the torus.
        assert_eq!(grid.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(torus.hops(NodeId(0), NodeId(15)), 2);
        // Adjacent nodes are unchanged.
        assert_eq!(torus.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(torus.hops(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn torus_routes_deliver_at_wrap_aware_latency() {
        let mut m = Mesh2D::new(16, torus_cfg());
        let hops = m.hops(NodeId(0), NodeId(15));
        let t = m.send(Cycle(0), NodeId(0), NodeId(15), 16);
        assert_eq!(t - Cycle(0), m.uncontended_latency(hops, 16));
    }

    #[test]
    fn torus_hops_stay_a_metric() {
        let m = Mesh2D::new(36, torus_cfg());
        for a in 0..36u16 {
            for b in 0..36u16 {
                assert_eq!(m.hops(NodeId(a), NodeId(b)), m.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn grid_dimensions_cover_all_nodes() {
        for n in 1..=70 {
            let m = Mesh2D::new(n, cfg());
            let (c, r) = m.dims();
            assert!(c * r >= n, "{n} nodes need {c}x{r} >= n");
            assert!(c.abs_diff(r) <= 1, "grid should be near-square: {c}x{r}");
        }
    }

    #[test]
    fn perfect_squares_form_square_grids() {
        for (n, side) in [(4, 2), (16, 4), (64, 8)] {
            assert_eq!(Mesh2D::new(n, cfg()).dims(), (side, side));
        }
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = Mesh2D::new(16, cfg());
        assert_eq!(m.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(m.hops(NodeId(0), NodeId(5)), 2); // (0,0) -> (1,1)
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6); // corner to corner
        assert_eq!(m.hops(NodeId(15), NodeId(0)), 6);
    }

    #[test]
    fn uncontended_send_matches_analytical_latency() {
        let mut m = Mesh2D::new(16, cfg());
        let size = 16; // 2 serialization cycles at 8 B/cycle
        let hops = m.hops(NodeId(0), NodeId(15));
        let t = m.send(Cycle(100), NodeId(0), NodeId(15), size);
        assert_eq!(t - Cycle(100), m.uncontended_latency(hops, size));
        assert_eq!(t - Cycle(100), hops * (2 + 3));
    }

    #[test]
    fn local_send_pays_local_latency_only() {
        let mut m = Mesh2D::new(16, cfg());
        assert_eq!(m.send(Cycle(10), NodeId(3), NodeId(3), 999), Cycle(12));
    }

    #[test]
    fn contention_serializes_messages_on_a_shared_link() {
        let mut m = Mesh2D::new(4, cfg());
        // Two messages both crossing the 0 -> 1 link at the same time.
        let a = m.send(Cycle(0), NodeId(0), NodeId(1), 8);
        let b = m.send(Cycle(0), NodeId(0), NodeId(1), 8);
        assert_eq!(a, Cycle(1 + 3));
        assert_eq!(b, Cycle(2 + 3), "second message waits for the link");
        // A message on a disjoint path is unaffected.
        let c = m.send(Cycle(0), NodeId(3), NodeId(2), 8);
        assert_eq!(c, Cycle(1 + 3));
    }

    #[test]
    fn contention_only_on_shared_prefix() {
        let mut m = Mesh2D::new(16, cfg());
        // 0 -> 3 and 0 -> 1 share the first link.
        let short = m.send(Cycle(0), NodeId(0), NodeId(1), 8);
        let long = m.send(Cycle(0), NodeId(0), NodeId(3), 8);
        assert_eq!(short, Cycle(4));
        // long waits 1 cycle at link 0, then 3 more uncontended hops.
        assert_eq!(long, Cycle(2 + 3 + 2 * (1 + 3)));
    }

    #[test]
    fn min_one_serialization_cycle() {
        let m = Mesh2D::new(4, cfg());
        assert_eq!(m.ser_cycles(0), 1);
        assert_eq!(m.ser_cycles(1), 1);
        assert_eq!(m.ser_cycles(9), 2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Mesh2D::new(0, cfg());
    }

    /// Delivery time is never before injection plus the uncontended
    /// path latency, and link state never regresses.
    #[test]
    fn prop_latency_lower_bound() {
        let mut rng = SmallRng::seed_from_u64(0x3e57_0001);
        for _ in 0..256 {
            let n = rng.gen_range(1usize..64);
            let mut m = Mesh2D::new(n, cfg());
            let pairs = rng.gen_range(1usize..50);
            for i in 0..pairs {
                let now = Cycle(i as u64);
                let s = NodeId((rng.gen_range(0usize..64) % n) as u16);
                let d = NodeId((rng.gen_range(0usize..64) % n) as u16);
                let size = rng.gen_range(1u32..256);
                let t = m.send(now, s, d, size);
                let lower = if s == d {
                    cfg().local_latency
                } else {
                    m.uncontended_latency(m.hops(s, d), size)
                };
                assert!(t.since(now) >= lower);
            }
        }
    }

    /// Hop metric is symmetric and satisfies the triangle inequality.
    #[test]
    fn prop_hops_metric() {
        let mut rng = SmallRng::seed_from_u64(0x3e57_0002);
        for _ in 0..512 {
            let n = rng.gen_range(1usize..64);
            let m = Mesh2D::new(n, cfg());
            let a = NodeId((rng.gen_range(0usize..64) % n) as u16);
            let b = NodeId((rng.gen_range(0usize..64) % n) as u16);
            let c = NodeId((rng.gen_range(0usize..64) % n) as u16);
            assert_eq!(m.hops(a, b), m.hops(b, a));
            assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
            assert_eq!(m.hops(a, a), 0);
        }
    }
}
