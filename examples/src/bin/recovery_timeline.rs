//! Recovery timeline: animate the (13, 20) headline failure with the
//! discrete-event simulator and print what happens, millisecond by
//! millisecond — fallback to OSPF, role handshakes, FlowMod waves, and the
//! moment programmability is restored.
//!
//! Run: `cargo run --release -p pm-examples --bin recovery_timeline`

use pm_core::{solve, FmssmInstance, Pg, Pm, PmWorkspace, RecoveryAlgorithm, Solved};
use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};
use pm_simctl::{RecoveryTiming, SimTime, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SdWanBuilder::att_paper_setup().build()?;
    let prog = Programmability::compute(&net);
    let failed = [ControllerId(3), ControllerId(4)]; // C13 and C20
    let scenario = net.fail(&failed)?;
    let inst = FmssmInstance::new(&scenario, &prog);

    println!("t=100.0ms  controllers C13 and C20 fail");
    println!(
        "           {} switches offline, {} flows lose programmability",
        scenario.offline_switches().len(),
        scenario.offline_flows().len()
    );
    println!("           hybrid switches fall back to their legacy (OSPF) tables");

    for algo in [&Pm::new() as &dyn RecoveryAlgorithm, &Pg::new()] {
        let Solved {
            plan,
            metrics,
            elapsed,
        } = solve(algo, &inst, &mut PmWorkspace::default())?;
        let compute_ms = elapsed.as_secs_f64() * 1e3;

        let mut sim = Simulation::new(&net);
        sim.schedule_failure(SimTime::from_ms(100.0), &failed);
        // Recovery starts after failure detection (10 ms, generous BFD
        // figure) plus the algorithm's own computation time.
        let start = 100.0 + 10.0 + compute_ms;
        sim.schedule_recovery(
            SimTime::from_ms(start),
            &scenario,
            &plan,
            RecoveryTiming {
                middle_layer_ms: algo.middle_layer_ms(),
                ..Default::default()
            },
        );
        let report = sim.run(SimTime::from_ms(600_000.0))?;

        println!("\n--- {} ---", algo.name());
        println!(
            "t={start:.1}ms  plan handed to active controllers (compute took {compute_ms:.2} ms)"
        );
        println!(
            "           {} role handshakes, {} FlowMods ({} messages total)",
            report.role_requests_sent,
            report.flow_mods_sent,
            report.total_messages()
        );
        if let (Some(sw), Some(fl), Some(worst)) = (
            report.mean_switch_recovery_ms(),
            report.mean_flow_recovery_ms(),
            report.max_flow_recovery_ms(),
        ) {
            println!("           mean switch re-control latency: {sw:.2} ms after failure");
            println!("           mean flow re-programmability:  {fl:.2} ms after failure");
            println!("           slowest flow:                  {worst:.2} ms after failure");
        }
        println!(
            "           result: {}/{} recoverable flows, total programmability {}, \
             data plane continuous = {}",
            metrics.recovered_flows,
            metrics.recoverable_flows,
            metrics.total_programmability,
            report.all_flows_deliverable
        );
    }
    Ok(())
}
