//! Pins what a repaired [`FleetRib`] answers: after every liveness
//! event of a scripted fault sequence on a small transit-stub fleet,
//! each engine's [`FleetRoutes::hop_toward`] toward each core equals
//! the answer of a rib built from scratch (full SPF) over the same
//! masks — next router, interface, address and distance alike.

use cbt::{node_addr, FleetRib, FleetRoutes, RouteLookup, SharedFleetRib};
use cbt_topology::{transit_stub, CsrGraph, SpfScratch, SpfTree, TransitStubParams};
use std::sync::{Arc, RwLock};

/// One scripted liveness event: edges (by edge-list index) and nodes
/// going down or coming back together.
struct Step {
    up: bool,
    edges: Vec<usize>,
    nodes: Vec<u32>,
}

fn full_trees(csr: &CsrGraph, cores: &[u32], scratch: &mut SpfScratch) -> Vec<SpfTree> {
    cores.iter().map(|&c| SpfTree::full(csr, c, scratch)).collect()
}

/// Every `(node, core)` answer of the shared rib equals a fresh rib's.
fn assert_hops_match_fresh(
    shared: &SharedFleetRib,
    csr: &CsrGraph,
    cores: &[u32],
    scratch: &mut SpfScratch,
    label: &str,
) {
    let fresh: SharedFleetRib =
        Arc::new(RwLock::new(FleetRib::repairable(csr, cores, full_trees(csr, cores, scratch))));
    let mut routed = 0;
    for me in 0..csr.node_count() as u32 {
        let (a, b) =
            (FleetRoutes::new(Arc::clone(shared), me), FleetRoutes::new(fresh.clone(), me));
        for &c in cores {
            let got = a.hop_toward(node_addr(c));
            assert_eq!(got, b.hop_toward(node_addr(c)), "{label}: node {me} toward core {c}");
            routed += got.is_some() as u32;
        }
        assert_eq!(a.hop_toward(node_addr(me)), b.hop_toward(node_addr(me)), "{label}: self {me}");
    }
    assert!(routed > 0, "{label}: some node still routes");
}

#[test]
fn repaired_fleet_rib_answers_like_a_fresh_one_through_flaps_and_crashes() {
    let topo = TransitStubParams {
        transit_domains: 2,
        transit_size: 4,
        stubs_per_transit_node: 2,
        stub_size: 4,
    };
    let n = topo.total_nodes();
    let g = transit_stub(topo, 11);
    let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
    let (mut csr, pairs) = CsrGraph::from_edges(n, &edges);
    let cores = [0u32, 3, 6];
    let mut scratch = SpfScratch::new();
    let trees = full_trees(&csr, &cores, &mut scratch);

    // Faults on the tree paths that matter: the first two hops from the
    // last stub router toward core 0, and a transit router on the way.
    let path = trees[0].path_to_root(n as u32 - 1).expect("connected");
    assert!(path.len() >= 4, "a multi-hop path to flap along");
    let edge_of = |a: u32, b: u32| {
        edges.iter().position(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a)).expect("edge")
    };
    let (e0, e1) = (edge_of(path[0], path[1]), edge_of(path[1], path[2]));
    let transit_ids = topo.transit_nodes() as u32;
    let transit = path.iter().copied().find(|&v| v < transit_ids && !cores.contains(&v)).unwrap();
    let other = (e1 + 7) % edges.len();
    assert!(other != e0 && other != e1, "three distinct edges");
    let script = [
        Step { up: false, edges: vec![e1], nodes: vec![] },
        Step { up: false, edges: vec![e0, other], nodes: vec![] },
        Step { up: true, edges: vec![e1], nodes: vec![] },
        Step { up: false, edges: vec![], nodes: vec![transit] },
        Step { up: false, edges: vec![], nodes: vec![cores[1]] },
        Step { up: true, edges: vec![e0], nodes: vec![transit] },
        Step { up: true, edges: vec![], nodes: vec![cores[1]] },
        Step { up: false, edges: vec![e1], nodes: vec![path[2]] },
        Step { up: true, edges: vec![e1, other], nodes: vec![path[2]] },
    ];

    let shared: SharedFleetRib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &cores, trees)));
    assert_hops_match_fresh(&shared, &csr, &cores, &mut scratch, "initial");
    for (i, step) in script.iter().enumerate() {
        let mut ends = Vec::new();
        for &k in &step.edges {
            for s in pairs[k] {
                csr.set_slot_live(s, step.up);
            }
            ends.push((edges[k].0, edges[k].1));
        }
        for &v in &step.nodes {
            csr.set_node_up(v, step.up);
        }
        {
            let mut rib = shared.write().unwrap();
            if step.up {
                rib.apply_additions(&csr, &ends, &step.nodes, &mut scratch);
            } else {
                rib.apply_removals(&csr, &ends, &step.nodes, &mut scratch);
            }
            assert_eq!(rib.version(), i as u64 + 1);
            rib.assert_matches_full_spf(&csr, &mut scratch);
        }
        assert_hops_match_fresh(&shared, &csr, &cores, &mut scratch, &format!("step {i}"));
    }
}
