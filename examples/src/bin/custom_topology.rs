//! Custom topologies: run the recovery pipeline on a Waxman random WAN, or
//! on a Topology Zoo GraphML file supplied on the command line.
//!
//! Run: `cargo run -p pm-examples --bin custom_topology [file.graphml]`

use pm_core::{solve, FmssmInstance, Pm, PmWorkspace, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{place_controllers, ControllerId, PlacementStrategy, Programmability, SdWanBuilder};
use pm_topo::builders::{waxman, WaxmanParams};
use pm_topo::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = match std::env::args().nth(1) {
        Some(path) => {
            println!("loading Topology Zoo file {path}");
            zoo::load_graphml_file(&path)?
        }
        None => {
            println!("no GraphML given; generating a 30-node Waxman WAN (seed 7)");
            waxman(&WaxmanParams {
                nodes: 30,
                seed: 7,
                ..Default::default()
            })?
        }
    };
    println!(
        "topology: {} nodes, {} undirected links, connected = {}",
        graph.node_count(),
        graph.edge_count(),
        graph.is_connected()
    );

    // Place 5 controllers by k-center and size capacity just above the
    // heaviest domain load.
    let sites = place_controllers(
        &graph,
        5.min(graph.node_count() / 2),
        PlacementStrategy::KCenter,
    )?;
    let mut builder = SdWanBuilder::new(graph);
    for &s in &sites {
        builder = builder.controller(s, u32::MAX / 4); // sized after build
    }
    // First build with huge capacity to learn the loads, then rebuild.
    let probe = builder.clone().build()?;
    let max_load = (0..sites.len())
        .map(|c| probe.controller_load(ControllerId(c)))
        .max()
        .unwrap_or(0);
    let capacity = (max_load as f64 * 1.02) as u32 + 1;
    let mut builder = SdWanBuilder::new(probe.topology().clone());
    for &s in &sites {
        builder = builder.controller(s, capacity);
    }
    let net = builder.build()?;
    println!(
        "controllers at {:?}, capacity {capacity} each",
        sites.iter().map(|s| s.index()).collect::<Vec<_>>()
    );

    let prog = Programmability::compute(&net);
    // Fail the two busiest controllers — the hardest scenario.
    let mut by_load: Vec<ControllerId> = (0..sites.len()).map(ControllerId).collect();
    by_load.sort_by_key(|&c| std::cmp::Reverse(net.controller_load(c)));
    let failed = &by_load[..2.min(by_load.len().saturating_sub(1))];
    println!(
        "failing the busiest controllers: {:?}",
        failed.iter().map(|c| c.index()).collect::<Vec<_>>()
    );
    let scenario = net.fail(failed)?;
    let inst = FmssmInstance::new(&scenario, &prog);

    for algo in [&RetroFlow::new() as &dyn RecoveryAlgorithm, &Pm::new()] {
        let metrics = solve(algo, &inst, &mut PmWorkspace::default())?.metrics;
        println!(
            "{:<10} recovered {}/{} recoverable flows, total programmability {}, \
             {} of {} switches",
            algo.name(),
            metrics.recovered_flows,
            metrics.recoverable_flows,
            metrics.total_programmability,
            metrics.recovered_switches,
            metrics.offline_switches,
        );
    }
    Ok(())
}
