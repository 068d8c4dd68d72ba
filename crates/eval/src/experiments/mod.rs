//! Experiment implementations. Each module exposes `run(...) -> Report`
//! with a `Params::default()` matching DESIGN.md's index, plus a
//! `quick()` preset that the integration tests and benches use.

pub mod dataplane;
pub mod delay;
pub mod explore;
mod fleet;
pub mod groupscale;
pub mod latency;
pub mod multicore;
pub mod netscale;
pub mod overhead;
pub mod placement;
pub mod protoscale;
pub mod shardscale;
pub mod soak;
pub mod spec;
pub mod state;
pub mod traffic;
pub mod treecost;
