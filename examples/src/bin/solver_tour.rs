//! Solver tour: the FMSSM problem end to end on a small grid network —
//! exact branch-and-bound versus the PM heuristic — plus direct use of the
//! MILP substrate for a custom model.
//!
//! Run: `cargo run -p pm-examples --bin solver_tour`

use pm_core::{solve, DelayBound, FmssmInstance, Optimal, Pm, PmWorkspace, Solved};
use pm_milp::{MilpSolver, Model, Sense, VarKind};
use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};
use pm_topo::{builders, NodeId};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: exact vs heuristic on a 4x4 grid SD-WAN. ---
    let net = SdWanBuilder::new(builders::grid(4, 4))
        .controller(NodeId(0), 700)
        .controller(NodeId(15), 700)
        .build()?;
    let prog = Programmability::compute(&net);
    let scenario = net.fail(&[ControllerId(0)])?;
    let inst = FmssmInstance::new(&scenario, &prog);

    let pm_metrics = solve(&Pm::new(), &inst, &mut PmWorkspace::default())?.metrics;
    println!(
        "PM:      total programmability {}, objective {:.4}",
        pm_metrics.total_programmability,
        inst.objective(&pm_metrics.per_flow_programmability, true)
    );

    let optimal = Optimal::new()
        .time_limit(Duration::from_secs(30))
        .delay_bound(DelayBound::IdealG);
    let outcome = optimal.solve_detailed(&inst)?;
    let opt_metrics =
        Solved::check(&optimal, &inst, outcome.plan.clone(), outcome.elapsed)?.metrics;
    println!(
        "Optimal: total programmability {}, objective {:.4} ({}, {} nodes, {:?})",
        opt_metrics.total_programmability,
        outcome.objective,
        if outcome.proved_optimal() {
            "proved"
        } else {
            "best effort"
        },
        outcome.nodes,
        outcome.elapsed
    );
    println!(
        "PM achieves {:.1}% of the exact objective",
        100.0 * inst.objective(&pm_metrics.per_flow_programmability, true) / outcome.objective
    );

    // --- Part 2: the MILP substrate directly (a small facility problem).---
    // Open at most 2 of 3 facilities (cost 3, 4, 5); each of 4 clients must
    // be served by an open facility; maximize service profit − open cost.
    let mut model = Model::new();
    let open: Vec<_> = (0..3)
        .map(|f| model.add_binary(format!("open{f}")))
        .collect();
    let profit = [
        [9.0, 7.0, 2.0],
        [5.0, 8.0, 3.0],
        [2.0, 6.0, 8.0],
        [3.0, 4.0, 9.0],
    ];
    let mut serve = Vec::new();
    for (cl, row) in profit.iter().enumerate() {
        let vars: Vec<_> = (0..3)
            .map(|f| model.add_binary(format!("serve{cl}_{f}")))
            .collect();
        // Exactly one facility serves each client; only if open.
        model.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
        for f in 0..3 {
            model.add_constraint([(vars[f], 1.0), (open[f], -1.0)], Sense::Le, 0.0);
        }
        serve.push((vars, row));
    }
    model.add_constraint(open.iter().map(|&v| (v, 1.0)), Sense::Le, 2.0);
    let mut objective = vec![(open[0], -3.0), (open[1], -4.0), (open[2], -5.0)];
    for (vars, row) in &serve {
        for f in 0..3 {
            objective.push((vars[f], row[f]));
        }
    }
    model.maximize(objective);

    let result = MilpSolver::new().solve(&model);
    let sol = result.solution.expect("feasible");
    println!(
        "\nfacility model: objective {:.1}, status {:?}",
        sol.objective, result.status
    );
    for (f, &var) in open.iter().enumerate() {
        if sol.value(var) > 0.5 {
            println!("  facility {f} open");
        }
    }

    // Bonus: the same model relaxed, straight from the simplex.
    let lp = pm_milp::simplex::solve_relaxation(&model, &Default::default());
    if let Some(lp) = lp.solution() {
        println!("  LP relaxation bound: {:.2}", lp.objective);
    }
    let _ = VarKind::Binary; // (VarKind is part of the public tour)
    Ok(())
}
