//! Static shortest-path routing.
//!
//! Routes are computed from the link graph with one breadth-first search
//! per source node (hop-count metric), which is sufficient for the
//! dumbbell and chain topologies used by the experiments. The table maps
//! `(from_node, dst_node)` to the outgoing [`LinkId`] of the first hop.
//!
//! The table is dense: `nodes²` entries of 4 bytes — a link id, with
//! `u32::MAX` standing for "no route" — 1.1 MB for the 528-node mega
//! world, and `O(nodes · (nodes + links))` to fill. It is
//! a pure function of the topology, so a sharded world — whose shards
//! all mirror the same topology — computes it once and shares it (see
//! `ShardedSim::run_slices`).

use std::collections::VecDeque;

use crate::packet::{LinkId, NodeId};

/// Table entry of a pair with no route; no link may have this id.
const NO_ROUTE: u32 = u32::MAX;

/// Next-hop table: `table[from][dst]` is the outgoing link, if reachable.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    num_nodes: usize,
    /// Flattened `num_nodes x num_nodes` matrix of link ids, or
    /// [`NO_ROUTE`].
    next_hop: Vec<u32>,
}

/// The table entry for the link at index `link`.
fn entry(link: usize) -> u32 {
    match u32::try_from(link) {
        Ok(id) if id != NO_ROUTE => id,
        _ => panic!("link L{link} has an id the routing table reserves for \"no route\""),
    }
}

impl RoutingTable {
    /// Computes shortest-hop routes given each link's `(from, to)`.
    ///
    /// # Panics
    /// Panics (naming the link and node) if a link endpoint lies outside
    /// `0..num_nodes`; such a topology cannot have been built through
    /// `Simulator::add_node`/`add_link` and routing over it would index
    /// out of bounds deep inside the search. Panics (naming the link) if
    /// a link's id would be `u32::MAX`, the table's "no route".
    pub fn compute(num_nodes: usize, links: &[(NodeId, NodeId)]) -> Self {
        // Adjacency: per node, outgoing (link, neighbour).
        let mut adj: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); num_nodes];
        for (i, &(from, to)) in links.iter().enumerate() {
            for end in [from, to] {
                assert!(
                    (end.0 as usize) < num_nodes,
                    "link L{i} references unknown node {end} \
                     (topology has {num_nodes} nodes)"
                );
            }
            adj[from.0 as usize].push((entry(i), to));
        }

        let mut next_hop = vec![NO_ROUTE; num_nodes * num_nodes];
        // One BFS per source, straight into that source's row: a node
        // other than `src` has been reached exactly when its entry is
        // set, so the row doubles as the visited set and the only scratch
        // is the queue, reused across sources.
        let mut q = VecDeque::new();
        for (src, row) in next_hop.chunks_exact_mut(num_nodes.max(1)).enumerate() {
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(link, v) in &adj[u] {
                    let v = v.0 as usize;
                    if v != src && row[v] == NO_ROUTE {
                        row[v] = if u == src { link } else { row[u] };
                        q.push_back(v);
                    }
                }
            }
        }
        Self {
            num_nodes,
            next_hop,
        }
    }

    /// First-hop link from `from` toward `dst`. `None` when unreachable or
    /// when `from == dst` (local delivery needs no link).
    pub fn next_hop(&self, from: NodeId, dst: NodeId) -> Option<LinkId> {
        if from == dst {
            return None;
        }
        self.next_hop
            .get(from.0 as usize * self.num_nodes + dst.0 as usize)
            .filter(|&&id| id != NO_ROUTE)
            .map(|&id| LinkId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_routes_forward_and_backward() {
        // 0 <-> 1 <-> 2 as two unidirectional links each way.
        let links = vec![
            (NodeId(0), NodeId(1)), // L0
            (NodeId(1), NodeId(0)), // L1
            (NodeId(1), NodeId(2)), // L2
            (NodeId(2), NodeId(1)), // L3
        ];
        let t = RoutingTable::compute(3, &links);
        assert_eq!(t.next_hop(NodeId(0), NodeId(2)), Some(LinkId(0)));
        assert_eq!(t.next_hop(NodeId(1), NodeId(2)), Some(LinkId(2)));
        assert_eq!(t.next_hop(NodeId(2), NodeId(0)), Some(LinkId(3)));
        assert_eq!(t.next_hop(NodeId(1), NodeId(0)), Some(LinkId(1)));
    }

    #[test]
    fn local_delivery_has_no_hop() {
        let t = RoutingTable::compute(2, &[(NodeId(0), NodeId(1))]);
        assert_eq!(t.next_hop(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn unreachable_is_none() {
        let t = RoutingTable::compute(3, &[(NodeId(0), NodeId(1))]);
        assert_eq!(t.next_hop(NodeId(1), NodeId(0)), None);
        assert_eq!(t.next_hop(NodeId(0), NodeId(2)), None);
        // Nor is anything reachable from or at a node the table lacks.
        assert_eq!(t.next_hop(NodeId(3), NodeId(0)), None);
        assert_eq!(t.next_hop(NodeId(2), NodeId(7)), None);
    }

    #[test]
    #[should_panic(expected = "link L4294967295 has an id the routing table reserves")]
    fn the_no_route_id_is_refused_by_name() {
        entry(u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "link L1 references unknown node n5")]
    fn out_of_range_endpoint_names_the_link_and_node() {
        RoutingTable::compute(2, &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(5))]);
    }

    #[test]
    fn dumbbell_routes_through_bottleneck() {
        // Hosts 0,1 -> router 2 == router 3 -> hosts 4,5.
        let mut links = Vec::new();
        for (a, b) in [(0u32, 2u32), (1, 2), (2, 3), (3, 4), (3, 5)] {
            links.push((NodeId(a), NodeId(b)));
            links.push((NodeId(b), NodeId(a)));
        }
        let t = RoutingTable::compute(6, &links);
        // 0 -> 4 goes via its access link (index 0).
        assert_eq!(t.next_hop(NodeId(0), NodeId(4)), Some(LinkId(0)));
        // Router 2 forwards to router 3 over the bottleneck (index 4).
        assert_eq!(t.next_hop(NodeId(2), NodeId(4)), Some(LinkId(4)));
        // Reverse path exists.
        assert!(t.next_hop(NodeId(4), NodeId(0)).is_some());
    }
}
