//! Failure drill: sweep every single and double controller failure,
//! compare the four recovery algorithms, and show the hybrid two-table
//! data plane rerouting a recovered flow.
//!
//! Run: `cargo run --release -p pm-examples --bin failure_drill`

use pm_core::{solve, FmssmInstance, Pg, Pm, PmWorkspace, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::hybrid::{HybridTable, RoutingMode, TableHit};
use pm_sdwan::{ControllerId, FlowId, Programmability, SdWanBuilder, SwitchId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SdWanBuilder::att_paper_setup().build()?;
    let prog = Programmability::compute(&net);
    let m = net.controllers().len();

    // Enumerate all 1- and 2-controller failures.
    let mut cases: Vec<Vec<ControllerId>> = Vec::new();
    for a in 0..m {
        cases.push(vec![ControllerId(a)]);
        for b in a + 1..m {
            cases.push(vec![ControllerId(a), ControllerId(b)]);
        }
    }

    println!(
        "{:<12} {:>10} {:>10} {:>10}   (total programmability)",
        "case", "RetroFlow", "PM", "PG"
    );
    let mut worst: Option<(String, f64)> = None;
    for failed in &cases {
        let scenario = net.fail(failed)?;
        let inst = FmssmInstance::new(&scenario, &prog);
        let label: Vec<String> = failed
            .iter()
            .map(|c| net.controllers()[c.index()].node.index().to_string())
            .collect();
        let label = format!("({})", label.join(","));

        let mut totals = Vec::new();
        for algo in [
            &RetroFlow::new() as &dyn RecoveryAlgorithm,
            &Pm::new(),
            &Pg::new(),
        ] {
            let solved = solve(algo, &inst, &mut PmWorkspace::default())?;
            totals.push(solved.metrics.total_programmability);
        }
        println!(
            "{:<12} {:>10} {:>10} {:>10}",
            label, totals[0], totals[1], totals[2]
        );
        let ratio = totals[1] as f64 / totals[0].max(1) as f64;
        if worst.as_ref().map_or(true, |(_, w)| ratio > *w) {
            worst = Some((label, ratio));
        }
    }
    if let Some((label, ratio)) = worst {
        println!(
            "\nlargest PM gain over RetroFlow: {:.0}% in case {label}",
            ratio * 100.0
        );
    }

    // Data-plane view: recover one flow at the hub per-flow and watch the
    // two-table pipeline.
    println!("\n--- hybrid data plane demo (paper Fig. 2) ---");
    let scenario = net.fail(&[ControllerId(3), ControllerId(4)])?;
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst)?;
    let hub = SwitchId(13);
    let mut table = HybridTable::from_legacy_spf(net.topology(), hub, RoutingMode::Hybrid)?;
    // Take one flow PM recovered at the hub and one it left on legacy mode.
    let recovered: Vec<FlowId> = plan
        .sdn_selections()
        .filter(|&(s, _, _)| s == hub)
        .map(|(_, l, _)| l)
        .collect();
    let legacy =
        scenario.offline_flows().iter().copied().find(|&l| {
            net.flow(l).traverses(hub) && net.flow(l).dst != hub && !recovered.contains(&l)
        });
    if let (Some(&sdn_flow), Some(legacy_flow)) = (recovered.first(), legacy) {
        // The controller steers the SDN-mode flow onto its second-best
        // loop-free next hop; the legacy flow keeps following OSPF.
        let dst = net.flow(sdn_flow).dst;
        let pc = pm_topo::paths::PathCounts::toward(net.topology(), dst.node());
        let mut hops = pc.next_hops(net.topology(), hub.node());
        let _ = hops.next();
        if let Some(alt) = hops.next() {
            table.install_flow_entry(sdn_flow, SwitchId(alt.index()));
        }
        let f1 = table.lookup(sdn_flow, dst).expect("route exists");
        println!(
            "flow {sdn_flow} at {hub}: {:?} via {} (controller-programmed)",
            f1.hit, f1.next_hop
        );
        let dst2 = net.flow(legacy_flow).dst;
        let f2 = table.lookup(legacy_flow, dst2).expect("route exists");
        assert_eq!(f2.hit, TableHit::LegacyTable);
        println!(
            "flow {legacy_flow} at {hub}: {:?} via {} (OSPF fallback)",
            f2.hit, f2.next_hop
        );
    }
    Ok(())
}
