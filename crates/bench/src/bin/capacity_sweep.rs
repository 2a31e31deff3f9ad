//! Beyond the paper's figures: controller-capacity sensitivity.
//!
//! The paper fixes every controller's capacity at 500 (following its \[6\],
//! \[9\]). This sweep varies that single knob across the (13, 20) headline
//! failure and reports how each algorithm's recovery degrades as capacity
//! tightens — the crossover where per-flow granularity starts to matter is
//! the study's point: RetroFlow falls off a cliff as soon as the hub no
//! longer fits anywhere, PM and PG degrade gracefully.
//!
//! Each capacity point is an independent network, so the points run in
//! parallel across the worker pool (`--jobs N`); rows are merged back in
//! capacity order.
//!
//! Run: `cargo run --release -p pm-bench --bin capacity_sweep [--jobs N]` (plus telemetry flags `--trace`/`--metrics`/`--prom`/`--events`/`--progress`; see `--help`)

use pm_bench::par::stream_indexed;
use pm_bench::report::{pct, render_table};
use pm_bench::EvalOptions;
use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{ControllerId, NetCache, PlanMetrics, SdWanBuilder};

const CAPACITIES: [u32; 8] = [450, 475, 500, 525, 550, 600, 700, 800];

fn main() {
    let opts = EvalOptions::from_args();
    let _plane = opts.start_telemetry_plane();
    let n = CAPACITIES.len() as u64;
    let results = stream_indexed(0..n, opts.jobs, 1, "capacity_sweep", |i, _: &mut ()| {
        let capacity = CAPACITIES[i as usize];
        let builder = SdWanBuilder::att_paper_setup_with_capacity(capacity);
        // Below ~490 some domain overloads; study that regime too.
        let net = match builder.clone().build() {
            Ok(n) => n,
            Err(_) => builder
                .allow_overload()
                .build()
                .expect("builds with waiver"),
        };
        let cache = NetCache::build(&net);
        let scenario = net
            .fail_cached(&[ControllerId(3), ControllerId(4)], &cache)
            .expect("valid");
        let prog = cache.programmability();
        let inst = FmssmInstance::with_cache(&scenario, prog, &cache);

        let mut cells = vec![capacity.to_string()];
        let recoverable = inst.recoverable_flow_count();
        let residual: u32 = inst.residuals().iter().sum();
        cells.push(residual.to_string());
        for algo in [
            &RetroFlow::new() as &dyn RecoveryAlgorithm,
            &Pm::new(),
            &Pg::new(),
        ] {
            let plan = algo.recover(&inst).expect("plan");
            plan.validate(&scenario, prog, algo.is_flow_level())
                .expect("valid plan");
            let m = PlanMetrics::compute(&scenario, prog, &plan, 0.0);
            cells.push(format!(
                "{} ({})",
                pct(m.recovered_flows as f64 / recoverable.max(1) as f64),
                m.total_programmability
            ));
        }
        (cells, capacity, recoverable)
    });

    let paper_point_recoverable = results
        .iter()
        .find(|&&(_, capacity, _)| capacity == 500)
        .map(|&(_, _, recoverable)| recoverable)
        .expect("sweep includes the paper's operating point");
    let rows: Vec<Vec<String>> = results.into_iter().map(|(cells, _, _)| cells).collect();

    println!(
        "capacity sensitivity on the (13,20) failure — recovered % of {paper_point_recoverable} \
         recoverable flows (total programmability)\n"
    );
    print!(
        "{}",
        render_table(&["capacity", "residual", "RetroFlow", "PM", "PG"], &rows)
    );
    println!("\n(paper operating point: capacity 500)");
    opts.export_observability();
}
