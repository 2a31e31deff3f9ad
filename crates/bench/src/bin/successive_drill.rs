//! Beyond the paper's figures: successive failures and recovery stability.
//!
//! The paper notes controllers "may fail simultaneously or fail
//! successively" (its reference \[7\], Matchmaker, targets that regime).
//! This drill plays every ordered pair of controller failures as a
//! *sequence* — recover after the first failure, then again after the
//! second — and compares incremental recovery
//! (`pm_core::SuccessiveRecovery`, which pins earlier decisions) against
//! recomputing from scratch at each step:
//!
//! * **churn** — how many switch mappings and SDN selections change between
//!   steps (each remapped switch is a role handshake, each changed
//!   selection a FlowMod: churn is control-plane cost and forwarding risk);
//! * **quality** — total programmability of the final plan.
//!
//! Sequences are independent, so they run in parallel across the worker
//! pool (`--jobs N`) and merge back in order.
//!
//! Run: `cargo run --release -p pm-bench --bin successive_drill [--jobs N]` (plus telemetry flags `--trace`/`--metrics`/`--prom`/`--events`/`--progress`; see `--help`)

use pm_bench::par::stream_indexed;
use pm_bench::report::render_table;
use pm_bench::{EvalOptions, SweepEngine};
use pm_core::{FmssmInstance, Pm, RecoveryAlgorithm, SuccessiveRecovery};
use pm_sdwan::{ControllerId, PlanMetrics, RecoveryPlan, SdWanBuilder};

/// Number of decisions in `b` that are new or changed relative to `a`.
fn churn(a: &RecoveryPlan, b: &RecoveryPlan) -> usize {
    b.difference(a).sdn_count() + b.difference(a).mappings().count()
}

/// One ordered failure sequence's outcome.
struct Sequence {
    label: String,
    inc_churn: usize,
    scr_churn: usize,
    inc_total: u64,
    scr_total: u64,
}

fn main() {
    let opts = EvalOptions::from_args();
    let _plane = opts.start_telemetry_plane();
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let engine = SweepEngine::new(&net, opts.clone());
    let m = net.controllers().len();

    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|first| (0..m).filter(move |&s| s != first).map(move |s| (first, s)))
        .collect();

    let n = pairs.len() as u64;
    let sequences = stream_indexed(0..n, opts.jobs, 1, "successive_drill", |i, _: &mut ()| {
        let (first, second) = pairs[i as usize];
        let prog = engine.programmability();
        let (c1, c2) = (ControllerId(first), ControllerId(second));

        // Incremental: recover c1, then extend for c2.
        let mut rec = SuccessiveRecovery::new();
        rec.on_failure(&net, prog, &[c1]).expect("step 1");
        let step1 = rec.plan().clone();
        rec.on_failure(&net, prog, &[c2]).expect("step 2");
        let inc_final = rec.plan().clone();
        let inc_churn = churn(&step1, &inc_final);

        // From scratch at each step.
        let sc1 = engine.scenario(&[c1]).expect("valid");
        let scratch1 = Pm::new()
            .recover(&FmssmInstance::with_cache(&sc1, prog, engine.cache()))
            .expect("pm step 1");
        let sc2 = engine.scenario(&[c1, c2]).expect("valid");
        let scratch2 = Pm::new()
            .recover(&FmssmInstance::with_cache(&sc2, prog, engine.cache()))
            .expect("pm step 2");
        let scr_churn = churn(&scratch1, &scratch2);

        let m_inc = PlanMetrics::compute(&sc2, prog, &inc_final, 0.0);
        let m_scr = PlanMetrics::compute(&sc2, prog, &scratch2, 0.0);

        Sequence {
            label: format!(
                "{} then {}",
                net.controllers()[first].node.index(),
                net.controllers()[second].node.index()
            ),
            inc_churn,
            scr_churn,
            inc_total: m_inc.total_programmability,
            scr_total: m_scr.total_programmability,
        }
    });

    let mut rows = Vec::new();
    let mut inc_total_sum = 0u64;
    let mut scr_total_sum = 0u64;
    let mut inc_churn_sum = 0usize;
    let mut scr_churn_sum = 0usize;
    for seq in &sequences {
        inc_total_sum += seq.inc_total;
        scr_total_sum += seq.scr_total;
        inc_churn_sum += seq.inc_churn;
        scr_churn_sum += seq.scr_churn;
        rows.push(vec![
            seq.label.clone(),
            seq.inc_churn.to_string(),
            seq.scr_churn.to_string(),
            seq.inc_total.to_string(),
            seq.scr_total.to_string(),
        ]);
    }

    println!("successive failures: incremental (stable) vs from-scratch recovery\n");
    print!(
        "{}",
        render_table(
            &[
                "sequence",
                "churn incr",
                "churn scratch",
                "total incr",
                "total scratch"
            ],
            &rows
        )
    );
    let n = rows.len() as f64;
    println!(
        "\nmeans over {} ordered sequences: churn {:.0} vs {:.0} decisions \
         (incremental saves {:.0}%), total programmability {:.0} vs {:.0} \
         ({:.1}% of from-scratch quality)",
        rows.len(),
        inc_churn_sum as f64 / n,
        scr_churn_sum as f64 / n,
        100.0 * (1.0 - inc_churn_sum as f64 / scr_churn_sum.max(1) as f64),
        inc_total_sum as f64 / n,
        scr_total_sum as f64 / n,
        100.0 * inc_total_sum as f64 / scr_total_sum.max(1) as f64,
    );
    opts.export_observability();
}
