//! Shared construction of the large Waxman WAN the scale drills sweep.
//!
//! The scale binaries (`scale_sweep`, `timeline_sweep`) exercise the
//! engine on the same topology family: a connected Waxman graph whose β
//! shrinks with the node count so the average degree stays in the high
//! single digits, farthest-point controller placement,
//! nearest-controller domains, and a bounded random flow population over
//! small endpoint pools — no all-pairs computation anywhere, so memory
//! and time scale with the controller count and flow pool, not the
//! switch count squared.

use crate::par::{default_jobs, stream_indexed};
use pm_sdwan::{nearest_controller_partition, spread_controllers, SdWan, SdWanBuilder, SwitchId};
use pm_topo::builders::{waxman_with, RowMap, WaxmanParams};
use pm_topo::rng::DetRng;
use std::collections::HashSet;

/// What to generate: switch count, controllers, flow budget, capacity
/// headroom and the seed everything derives from.
#[derive(Debug, Clone)]
pub struct WanSpec {
    /// Waxman switch count.
    pub nodes: usize,
    /// Controllers to place by farthest-point traversal.
    pub controllers: usize,
    /// Flows to route over bounded endpoint pools.
    pub flows: usize,
    /// Uniform auto-capacity factor over the realized peak load.
    pub headroom: f64,
    /// Seed for the topology and the flow sample.
    pub seed: u64,
}

/// A generated WAN plus the shape facts the BENCH artifacts report.
#[derive(Debug)]
pub struct BuiltWan {
    /// The assembled network.
    pub net: SdWan,
    /// Edge count of the generated topology.
    pub edges: usize,
    /// The β the Waxman generator ran with.
    pub beta: f64,
    /// Flows actually routed (the sampler can fall short of the budget
    /// on tiny pools).
    pub flows: usize,
}

/// Runs the Waxman generator's row phases on the [`stream_indexed`] pool
/// under the `topo` prefix, `batch` rows per claim.
struct PoolRows {
    jobs: usize,
    batch: usize,
}

impl RowMap for PoolRows {
    fn map_rows<R, F>(&self, rows: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        stream_indexed(
            0..rows as u64,
            self.jobs,
            self.batch,
            "topo",
            |i, _: &mut ()| f(i as usize),
        )
    }
}

/// The β that keeps the expected Waxman degree in the high single digits
/// as the node count grows.
pub fn scale_beta(nodes: usize) -> f64 {
    (0.2 * (29.0 / (nodes.max(2) as f64 - 1.0)).sqrt()).min(0.35)
}

/// `size` distinct node indices, chosen by a partial Fisher–Yates shuffle.
fn sample_pool(rng: &mut DetRng, n: usize, size: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let size = size.min(n);
    for i in 0..size {
        let j = i + (rng.next_u64() as usize) % (n - i);
        all.swap(i, j);
    }
    all.truncate(size);
    all
}

/// Up to `want` distinct `(src, dst)` pairs over bounded endpoint pools,
/// so the per-source and per-destination shortest-path caches stay small
/// no matter how large the topology is.
pub fn sample_flows(rng: &mut DetRng, n: usize, want: usize) -> Vec<(SwitchId, SwitchId)> {
    let pool = sample_pool(rng, n, 192.min(n));
    let mut pairs = Vec::with_capacity(want);
    let mut seen = HashSet::new();
    let mut misses = 0usize;
    while pairs.len() < want && misses < 20 * want + 100 {
        let src = pool[(rng.next_u64() as usize) % pool.len()];
        let dst = pool[(rng.next_u64() as usize) % pool.len()];
        if src == dst || !seen.insert((src, dst)) {
            misses += 1;
            continue;
        }
        pairs.push((SwitchId(src), SwitchId(dst)));
    }
    pairs
}

/// Generates the WAN of `spec`: topology, placement, domains, flows,
/// capacities. Deterministic in `spec.seed`; the Waxman rows run on the
/// [`stream_indexed`] pool ([`default_jobs`] workers, prefix `topo`), and
/// the graph is [`pm_topo::builders::waxman`]'s whatever the worker
/// count. The phases record under the `scale.topology` /
/// `scale.placement` / `scale.build` spans when the [`pm_obs`] recorder
/// is on.
///
/// # Panics
///
/// Panics if the spec is out of range (`controllers` must be in
/// `2..=nodes`); the binaries validate flags before calling this.
pub fn build_wan(spec: &WanSpec) -> BuiltWan {
    let beta = scale_beta(spec.nodes);
    let params = WaxmanParams {
        nodes: spec.nodes,
        beta,
        seed: spec.seed,
        ..Default::default()
    };
    let g = {
        let _span = pm_obs::span("scale.topology");
        // Rows shrink from n − 1 pairs to none: small claims keep the
        // workers evenly loaded to the end.
        let rows = PoolRows {
            jobs: default_jobs(),
            batch: 16,
        };
        waxman_with(&params, &rows).expect("waxman parameters are valid")
    };
    let edges = g.edge_count();
    let (sites, domains, flows) = {
        let _span = pm_obs::span("scale.placement");
        let sites = spread_controllers(&g, spec.controllers).expect("connected by construction");
        let domains = nearest_controller_partition(&g, &sites).expect("sites are valid");
        let mut rng = DetRng::seed_from_u64(spec.seed ^ 0x5ca1e5eed);
        let flows = sample_flows(&mut rng, spec.nodes, spec.flows);
        (sites, domains, flows)
    };
    let flow_count = flows.len();
    let net = {
        let _span = pm_obs::span("scale.build");
        let mut b = SdWanBuilder::new(g);
        for &s in &sites {
            b = b.controller(s, 0);
        }
        b.domains(domains)
            .explicit_flows(flows)
            .auto_capacity(spec.headroom)
            .build()
            .expect("generated network is valid")
    };
    BuiltWan {
        net,
        edges,
        beta,
        flows: flow_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_topo::builders::waxman;

    #[test]
    fn build_is_deterministic_in_the_seed() {
        let spec = WanSpec {
            nodes: 60,
            controllers: 5,
            flows: 40,
            headroom: 1.5,
            seed: 11,
        };
        let a = build_wan(&spec);
        let b = build_wan(&spec);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.net.switch_count(), 60);
        assert_eq!(a.net.controllers().len(), 5);
        assert_eq!(
            a.net.flows().len(),
            b.net.flows().len(),
            "same seed, same flows"
        );
        let c = build_wan(&WanSpec { seed: 12, ..spec });
        assert_ne!(a.edges, 0);
        assert!(
            a.edges != c.edges || a.flows != c.flows || a.net.flows() != c.net.flows(),
            "different seed must change the WAN"
        );
    }

    /// The pooled generator is the serial one, arc for arc, at any job
    /// count and claim size.
    #[test]
    fn pooled_waxman_equals_serial() {
        for (nodes, seed) in [(2usize, 0u64), (37, 5), (1000, 42)] {
            let params = WaxmanParams {
                nodes,
                beta: scale_beta(nodes),
                seed,
                ..Default::default()
            };
            let serial = waxman(&params).unwrap();
            for (jobs, batch) in [(1, 16), (2, 16), (8, 16), (2, 1), (8, 1)] {
                let pooled = waxman_with(&params, &PoolRows { jobs, batch }).unwrap();
                assert_eq!(pooled, serial, "n={nodes} jobs={jobs} batch={batch}");
                for v in serial.nodes() {
                    assert_eq!(pooled.adjacency(v), serial.adjacency(v));
                }
            }
        }
    }

    #[test]
    fn beta_shrinks_with_scale() {
        assert!(scale_beta(30) >= scale_beta(1000));
        assert!(scale_beta(1000) >= scale_beta(10_000));
        assert!(scale_beta(2) <= 0.35);
    }
}
