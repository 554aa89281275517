//! The installed forwarding state of the POC fabric.
//!
//! After an auction round selects `SL`, the POC installs next-hop tables
//! computed from shortest paths over the leased links. The fabric is a
//! "transparent fabric" (§1.2): it forwards between attachment routers and
//! applies no policy of its own.

use poc_flow::{CapacityGraph, LinkSet};
use poc_topology::{LinkId, PocTopology, RouterId};

/// Errors from walking the installed forwarding tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The next-hop tables cycle without reaching the destination. The
    /// tables `install()` computes are loop-free by construction, so this
    /// indicates corrupted or hand-built state.
    RoutingLoop { src: RouterId, dst: RouterId },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::RoutingLoop { src, dst } => {
                write!(f, "forwarding loop from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Next-hop forwarding tables over an active link set.
#[derive(Clone, Debug)]
pub struct ForwardingState {
    n_routers: usize,
    /// `next[src][dst]` = (link to take, next router), or None.
    next: Vec<Vec<Option<(LinkId, RouterId)>>>,
}

impl ForwardingState {
    /// Compute tables from all-pairs shortest paths (by distance) over
    /// `active`.
    pub fn install(topo: &PocTopology, active: &LinkSet) -> Self {
        let n = topo.n_routers();
        let g = CapacityGraph::new(topo, active);
        let mut next = vec![vec![None; n]; n];
        // One Dijkstra per source, extracting first hops.
        for (src_i, row) in next.iter_mut().enumerate() {
            let src = RouterId::from_index(src_i);
            // Dijkstra with predecessor tracking via repeated shortest_path
            // would be O(n^2 E); do a single-source pass instead.
            let (dist, prev) = single_source(&g, topo, src);
            for (dst_i, slot) in row.iter_mut().enumerate() {
                if dst_i == src_i || dist[dst_i].is_infinite() {
                    continue;
                }
                // Walk back from dst to src to find the first hop.
                let mut cur = dst_i;
                let mut hop = None;
                while let Some((link, parent)) = prev[cur] {
                    hop = Some((link, RouterId::from_index(cur)));
                    if parent.index() == src_i {
                        break;
                    }
                    cur = parent.index();
                }
                *slot = hop;
            }
        }
        Self { n_routers: n, next }
    }

    /// Next hop from `at` toward `dst`.
    pub fn next_hop(&self, at: RouterId, dst: RouterId) -> Option<(LinkId, RouterId)> {
        self.next.get(at.index())?.get(dst.index()).copied().flatten()
    }

    /// Full path from `src` to `dst` (links in order), `Ok(None)` if
    /// unreachable, or [`FabricError::RoutingLoop`] if the tables are
    /// inconsistent (which `install()` cannot produce).
    pub fn path(&self, src: RouterId, dst: RouterId) -> Result<Option<Vec<LinkId>>, FabricError> {
        if src == dst {
            return Ok(Some(Vec::new()));
        }
        let mut path = Vec::new();
        let mut at = src;
        for _ in 0..=self.n_routers {
            let Some((link, nxt)) = self.next_hop(at, dst) else {
                return Ok(None);
            };
            path.push(link);
            if nxt == dst {
                return Ok(Some(path));
            }
            at = nxt;
        }
        Err(FabricError::RoutingLoop { src, dst })
    }

    /// Whether every router can reach every other.
    pub fn fully_connected(&self) -> bool {
        (0..self.n_routers)
            .all(|s| (0..self.n_routers).all(|d| s == d || self.next[s][d].is_some()))
    }
}

fn single_source(
    g: &CapacityGraph<'_>,
    topo: &PocTopology,
    src: RouterId,
) -> (Vec<f64>, Vec<Option<(LinkId, RouterId)>>) {
    let n = topo.n_routers();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(LinkId, RouterId)>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push((std::cmp::Reverse(ordered(0.0)), src));
    while let Some((std::cmp::Reverse(d), node)) = heap.pop() {
        let d = d.0;
        if d > dist[node.index()] + 1e-12 {
            continue;
        }
        for &(l, nb) in g.neighbors(node) {
            let nd = d + topo.link(l).distance_km;
            if nd < dist[nb.index()] - 1e-12 {
                dist[nb.index()] = nd;
                prev[nb.index()] = Some((l, node));
                heap.push((std::cmp::Reverse(ordered(nd)), nb));
            }
        }
    }
    (dist, prev)
}

/// Total-ordered f64 wrapper for the heap.
#[derive(PartialEq, PartialOrd)]
struct Ordered(f64);
impl Eq for Ordered {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN distance")
    }
}
fn ordered(v: f64) -> Ordered {
    Ordered(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use poc_topology::builder::two_bp_square;

    fn r(i: u32) -> RouterId {
        RouterId(i)
    }

    #[test]
    fn full_topology_fully_connected() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        assert!(fs.fully_connected());
        // Direct link r0-r1 is the next hop.
        let (l, nxt) = fs.next_hop(r(0), r(1)).unwrap();
        assert!(t.link(l).connects(r(0), r(1)));
        assert_eq!(nxt, r(1));
    }

    #[test]
    fn path_walks_multi_hop() {
        let t = two_bp_square();
        // Remove the direct r0-r3 link (link 3): path must go via another
        // router.
        let mut active = LinkSet::full(t.n_links());
        active.remove(LinkId(3));
        let fs = ForwardingState::install(&t, &active);
        let path = fs.path(r(0), r(3)).unwrap().unwrap();
        assert!(path.len() >= 2);
        assert!(!path.contains(&LinkId(3)));
    }

    #[test]
    fn unreachable_returns_none() {
        let t = two_bp_square();
        let bp0 = LinkSet::from_links(t.n_links(), t.links_of_bp(poc_topology::BpId(0)));
        let fs = ForwardingState::install(&t, &bp0);
        assert!(!fs.fully_connected());
        assert!(fs.path(r(0), r(3)).unwrap().is_none());
        assert!(fs.next_hop(r(0), r(3)).is_none());
    }

    #[test]
    fn self_path_is_empty() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        assert_eq!(fs.path(r(2), r(2)).unwrap().unwrap(), Vec::<LinkId>::new());
    }

    #[test]
    fn paths_are_distance_shortest() {
        let t = two_bp_square();
        let fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        // r0→r3 direct (1830) beats r0-r2-r3 (910+950=1860).
        let path = fs.path(r(0), r(3)).unwrap().unwrap();
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn routing_loop_is_an_error_not_a_panic() {
        // Hand-build corrupted tables: r0 → r1 → r0 while "heading" to r2.
        let t = two_bp_square();
        let mut fs = ForwardingState::install(&t, &LinkSet::full(t.n_links()));
        let to_r1 = fs.next_hop(r(0), r(1)).unwrap();
        let to_r0 = fs.next_hop(r(1), r(0)).unwrap();
        fs.next[0][2] = Some(to_r1);
        fs.next[1][2] = Some(to_r0);
        assert_eq!(fs.path(r(0), r(2)), Err(FabricError::RoutingLoop { src: r(0), dst: r(2) }));
        // The error formats the offending pair for operators.
        let msg = fs.path(r(0), r(2)).unwrap_err().to_string();
        assert!(msg.contains("forwarding loop"), "got: {msg}");
    }
}
