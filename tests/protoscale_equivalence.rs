//! Protoscale equivalence (ISSUE 9 satellite): at ~1k routers, the
//! tree the *live engines* build by exchanging real JOIN/ACK control
//! frames must be edge-identical to the analytic walk over the same
//! SPF trees — and the whole exercise must be invariant under engine
//! sharding (`CBT_SHARDS=2` replays byte-identically).
//!
//! The hard asserts (engine FIB edges == analytic span, fleet-wide
//! silence after teardown, zero decode errors) live inside
//! [`protoscale::equivalence`]; these tests pin the scale and the
//! cross-shard determinism on top.

use cbt_eval::experiments::protoscale::{self, EquivSummary};
use cbt_topology::generate::TransitStubParams;

/// 2 × 4 × (1 + 3·40) = 968 routers — the ~1k gate from the Impl-5
/// experiment, run with the session's `CBT_SHARDS` default so the CI
/// sharded pass (`CBT_SHARDS=2 cargo test`) exercises it too.
const TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 3,
    stub_size: 40,
};

/// The full outcome of the gate at seed 9393, committed as a golden
/// and identical under `CBT_SHARDS=1` and `=2`.
const GOLDEN: EquivSummary = EquivSummary {
    routers: 968,
    groups: 8,
    members: 251,
    tree_edges: 980,
    join_frames: 1960,
    total_frames: 3920,
    settle_us: 2_251_000,
    silent_us: 27_000_000,
};

#[test]
fn live_engines_rebuild_the_analytic_tree_at_1k_routers() {
    let eq = protoscale::equivalence(TOPO, 8, 32, None, 9393);
    assert_eq!(eq, GOLDEN);
    assert_eq!(eq.routers, 968);
    assert_eq!(eq.groups, 8);
    assert!(eq.members > 0);
    // Non-degenerate trees: every member either is on a shared path or
    // contributes edges; a zero here means the joins never happened.
    assert!(eq.tree_edges >= eq.groups as u64, "trees are degenerate: {}", eq.tree_edges);
    // Teardown traffic exists (quits + acks) and postdates the build.
    assert!(eq.total_frames > eq.join_frames);
    assert!(eq.silent_us > eq.settle_us);
}

#[test]
fn equivalence_is_deterministic_across_engine_shards() {
    let one = protoscale::equivalence(TOPO, 8, 32, Some(1), 9393);
    let two = protoscale::equivalence(TOPO, 8, 32, Some(2), 9393);
    // Group-space sharding is an internal engine detail: the wire
    // behaviour — frame counts, tree shape, settle and silence
    // instants — must not move by a single microsecond or frame.
    assert_eq!(one, two);
}
