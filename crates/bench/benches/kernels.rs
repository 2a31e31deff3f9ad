//! Criterion micro-benchmarks of the hottest kernels: the Waxman
//! generator the scale drills start from, the programmability recompute,
//! PM's phase-1 pass, one full sweep case through the [`SweepEngine`],
//! and the incremental solver core's delta kernels against their
//! recompute counterparts.
//!
//! Complements `benches/heuristic.rs` (whole-algorithm timings): these
//! isolate the kernels the arena-indexed storage flattened, so a layout
//! regression shows up here before it moves the Fig. 7 numbers. The
//! `*_delta` / `pm_warm_select` entries additionally assert that the
//! delta path is faster than recomputing from scratch (ratio < 1.0), so
//! an incremental path that silently degrades to recompute cost fails
//! the bench run itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pm_bench::wan::scale_beta;
use pm_bench::{build_wan, EvalOptions, SweepEngine, WanSpec};
use pm_core::{FmssmInstance, Pm, PmConfig, PmWorkspace, RecoveryAlgorithm};
use pm_sdwan::{ControllerId, NetCache, Programmability, SdWan, SdWanBuilder};
use pm_topo::builders::{waxman, WaxmanParams};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved per-op medians of `fresh` vs `delta`, in nanoseconds.
///
/// Each sample times a block of 8 calls so a single scheduler hiccup
/// cannot dominate one measurement; samples alternate between the two
/// closures so slow drift (thermal, noisy neighbours) hits both sides
/// equally, and medians shrug off the remaining spikes.
fn interleaved_medians_ns(
    iters: usize,
    mut fresh: impl FnMut(),
    mut delta: impl FnMut(),
) -> (f64, f64) {
    const BLOCK: u32 = 8;
    let mut fresh_ns = Vec::with_capacity(iters);
    let mut delta_ns = Vec::with_capacity(iters);
    for _ in 0..16 {
        fresh();
        delta();
    }
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..BLOCK {
            fresh();
        }
        fresh_ns.push(t.elapsed().as_nanos() as f64 / f64::from(BLOCK));
        let t = Instant::now();
        for _ in 0..BLOCK {
            delta();
        }
        delta_ns.push(t.elapsed().as_nanos() as f64 / f64::from(BLOCK));
    }
    fresh_ns.sort_by(f64::total_cmp);
    delta_ns.sort_by(f64::total_cmp);
    (fresh_ns[iters / 2], delta_ns[iters / 2])
}

/// Asserts the delta-vs-recompute ratio is < 1.0 and reports it.
fn assert_delta_wins(kernel: &str, fresh_ns: f64, delta_ns: f64) {
    let ratio = delta_ns / fresh_ns;
    println!("{kernel}: delta {delta_ns:.0} ns vs recompute {fresh_ns:.0} ns (ratio {ratio:.3})");
    assert!(
        ratio < 1.0,
        "{kernel}: delta path must beat recompute, got ratio {ratio:.3} \
         (delta {delta_ns:.0} ns, recompute {fresh_ns:.0} ns)"
    );
}

/// The Waxman WAN the delta kernels run on — the scale binaries' topology
/// family, sized so one bench iteration is microseconds, not seconds.
fn delta_wan() -> SdWan {
    build_wan(&WanSpec {
        nodes: 120,
        controllers: 8,
        flows: 96,
        headroom: 1.5,
        seed: 7,
    })
    .net
}

/// Kernel 0: the serial Waxman generator at 2000 nodes with the scale
/// drills' β — both O(n²) row passes and the one-pass CSR build.
fn bench_waxman(c: &mut Criterion) {
    let params = WaxmanParams {
        nodes: 2000,
        beta: scale_beta(2000),
        seed: 42,
        ..Default::default()
    };
    c.bench_function("kernel/waxman_2k", |b| {
        b.iter(|| waxman(black_box(&params)).expect("valid parameters"))
    });
}

/// Kernel 1: the programmability table recompute (flat flow×switch table
/// fill), with the topology cache warm — the per-network setup cost every
/// sweep pays once.
fn bench_programmability(c: &mut Criterion) {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let cache = NetCache::build(&net);
    cache.topo().warm();
    c.bench_function("kernel/programmability_recompute", |b| {
        b.iter(|| Programmability::compute_cached(black_box(&net), black_box(cache.topo())))
    });
}

/// Kernel 2: PM's phase-1 pass alone (`skip_phase2`), the dense
/// selection/pool scan at the heart of Algorithm 1.
fn bench_pm_phase1(c: &mut Criterion) {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let prog = Programmability::compute(&net);
    let pm = Pm::with_config(PmConfig {
        skip_phase2: true,
        ..Default::default()
    });
    let cases: Vec<(&str, Vec<ControllerId>)> = vec![
        ("1-failure (13)", vec![ControllerId(3)]),
        ("2-failure (13,20)", vec![ControllerId(3), ControllerId(4)]),
        (
            "3-failure (5,13,20)",
            vec![ControllerId(1), ControllerId(3), ControllerId(4)],
        ),
    ];
    let mut group = c.benchmark_group("kernel/pm_phase1");
    for (label, failed) in &cases {
        let scenario = net.fail(failed).expect("valid case");
        let inst = FmssmInstance::new(&scenario, &prog);
        group.bench_with_input(BenchmarkId::from_parameter(label), &inst, |b, inst| {
            b.iter(|| pm.recover(black_box(inst)).expect("pm phase 1"))
        });
    }
    group.finish();
}

/// Kernel 3: one full sweep case (scenario build from cache, instance
/// build, all heuristics, metrics) — the unit the parallel engine fans out.
fn bench_sweep_case(c: &mut Criterion) {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let opts = EvalOptions {
        skip_optimal: true,
        jobs: 1,
        ..Default::default()
    };
    let engine = SweepEngine::new(&net, opts);
    let failed = [ControllerId(3), ControllerId(4)];
    c.bench_function("kernel/sweep_case (13,20)", |b| {
        b.iter(|| engine.run_case(black_box(&failed)))
    });
}

/// Kernel 4: a single-swap scenario delta (`apply_delta_cached`) against
/// the cold cached rebuild (`fail_cached`) — the step the sweep engine
/// takes between colex-adjacent cases.
fn bench_scenario_delta(c: &mut Criterion) {
    let net = delta_wan();
    let cache = NetCache::build(&net);
    cache.topo().warm();
    let a = [ControllerId(0), ControllerId(1)];
    let b_set = [ControllerId(0), ControllerId(2)];

    // The rolling scenario toggles between the two adjacent failure sets,
    // so every timed delta op is exactly one (revived, failed) swap.
    let mut rolling = net.fail_cached(&a, &cache).expect("valid case");
    let mut at_a = true;
    let mut swap_once = || {
        let (remove, add) = if at_a {
            (ControllerId(1), ControllerId(2))
        } else {
            (ControllerId(2), ControllerId(1))
        };
        at_a = !at_a;
        rolling
            .apply_delta_cached(remove, add, &cache)
            .expect("adjacent swap is valid");
    };
    let fresh_once = || {
        black_box(
            net.fail_cached(black_box(&b_set), &cache)
                .expect("valid case"),
        );
    };

    let (fresh_ns, delta_ns) = interleaved_medians_ns(201, fresh_once, &mut swap_once);
    assert_delta_wins("kernel/scenario_delta", fresh_ns, delta_ns);

    c.bench_function("kernel/scenario_delta", |b| b.iter(&mut swap_once));
}

/// Kernel 5: patching the scenario-projected programmability table under
/// one controller swap against re-projecting it from the offline masks.
fn bench_programmability_delta(c: &mut Criterion) {
    let net = delta_wan();
    let prog = Programmability::compute(&net);
    let a = [ControllerId(0), ControllerId(1)];
    let b_set = [ControllerId(0), ControllerId(2)];
    let scenario_b = net.fail(&b_set).expect("valid case");

    let mut table = prog.scenario_table(&net.fail(&a).expect("valid case"));
    let mut at_a = true;
    let mut patch_once = || {
        let (remove, add) = if at_a {
            (ControllerId(1), ControllerId(2))
        } else {
            (ControllerId(2), ControllerId(1))
        };
        at_a = !at_a;
        table.apply_delta(&net, &prog, remove, add);
    };
    let fresh_once = || {
        black_box(prog.scenario_table(black_box(&scenario_b)));
    };

    let (fresh_ns, delta_ns) = interleaved_medians_ns(201, fresh_once, &mut patch_once);
    assert_delta_wins("kernel/programmability_delta", fresh_ns, delta_ns);

    c.bench_function("kernel/programmability_delta", |b| b.iter(&mut patch_once));
}

/// Kernel 6: PM's selection pass in a carried workspace (`recover_in`)
/// against the cold run that allocates its bitmaps from scratch — the
/// warm-start the sweep workers thread across claimed blocks.
fn bench_pm_warm_select(c: &mut Criterion) {
    let net = delta_wan();
    let prog = Programmability::compute(&net);
    let scenario = net
        .fail(&[ControllerId(0), ControllerId(1)])
        .expect("valid case");
    let inst = FmssmInstance::new(&scenario, &prog);
    let pm = Pm::new();

    let mut ws = PmWorkspace::default();
    let mut warm_once = || {
        black_box(
            pm.recover_in(black_box(&inst), &mut ws)
                .expect("pm recovers"),
        );
    };
    let cold_once = || {
        black_box(pm.recover(black_box(&inst)).expect("pm recovers"));
    };

    let (cold_ns, warm_ns) = interleaved_medians_ns(201, cold_once, &mut warm_once);
    assert_delta_wins("kernel/pm_warm_select", cold_ns, warm_ns);

    c.bench_function("kernel/pm_warm_select", |b| b.iter(&mut warm_once));
}

criterion_group!(
    benches,
    bench_waxman,
    bench_programmability,
    bench_pm_phase1,
    bench_sweep_case,
    bench_scenario_delta,
    bench_programmability_delta,
    bench_pm_warm_select
);
criterion_main!(benches);
