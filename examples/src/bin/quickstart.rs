//! Quickstart: fail a controller on the paper's evaluation network and
//! recover path programmability with PM.
//!
//! Run: `cargo run -p pm-examples --bin quickstart`

use pm_core::{solve, FmssmInstance, Pm, PmWorkspace, Solved};
use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the paper's SD-WAN: the ATT-like backbone, six controllers
    //    with capacity 500, one flow per ordered switch pair.
    let net = SdWanBuilder::att_paper_setup().build()?;
    println!(
        "network: {} switches, {} links, {} flows, {} controllers",
        net.switch_count(),
        net.topology().directed_edge_count(),
        net.flows().len(),
        net.controllers().len()
    );

    // 2. Precompute per-flow programmability data (β and p̄).
    let prog = Programmability::compute(&net);

    // 3. Fail the controller that owns the St. Louis hub (C13 = index 3).
    let scenario = net.fail(&[ControllerId(3)])?;
    println!(
        "failure: {} offline switches, {} offline flows",
        scenario.offline_switches().len(),
        scenario.offline_flows().len()
    );

    // 4. Run the PM heuristic (Algorithm 1 of the paper); `solve` also
    //    validates the plan and measures it.
    let instance = FmssmInstance::new(&scenario, &prog);
    let Solved { plan, metrics, .. } = solve(&Pm::new(), &instance, &mut PmWorkspace::default())?;

    // 5. Inspect the recovery.
    println!(
        "recovered {}/{} recoverable flows ({} offline total)",
        metrics.recovered_flows, metrics.recoverable_flows, metrics.offline_flows
    );
    println!("total programmability: {}", metrics.total_programmability);
    println!(
        "least programmability over recoverable flows: {}",
        metrics.min_programmability_recoverable()
    );
    println!(
        "per-flow control overhead: {:.3} ms",
        metrics.per_flow_overhead_ms()
    );
    for (s, c) in plan.mappings() {
        let node = &net.topology().node(s.node()).name;
        let ctrl_node = net.controllers()[c.index()].node;
        println!(
            "  {s} ({node}) -> {c} (at {}), {} SDN flows",
            net.topology().node(ctrl_node).name,
            plan.sdn_selections().filter(|&(ss, _, _)| ss == s).count()
        );
    }
    Ok(())
}
