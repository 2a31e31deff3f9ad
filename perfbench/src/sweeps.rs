//! The three offline workloads: `sweep-setup` and `sweep-cases` drive
//! `build_wan` and `SweepEngine`; `timeline` drives `TimelineSpace` and
//! `Timeline::replay` on two worker threads of its own.
//!
//! Each workload runs on one fixed WAN, generated from [`WAN_SEED`] the
//! way `scale_sweep` and `timeline_sweep` generate theirs by default; the
//! run's seed draws what varies in operation: the sampled failure cases
//! and the sampled failure timelines.
//!
//! A run repeats whole passes — set-up, then every case — until the time
//! budget is spent (at least [`MIN_PASSES`] passes) and reports, per
//! metric, the median over passes, so one pass hit by a slow spell of the
//! machine does not move the result. A traced run makes exactly one pass
//! with the `pm_obs` recorder on.

use crate::layers::{self, Window};
use crate::stats::{digest_rows, median, percentile, sample_note};
use crate::{metric, Outcome, Reference, Workload, DEFAULT_SEED, JOBS};
use pm_bench::{
    build_wan, timeline_rows, CaseResult, EvalOptions, SweepEngine, TimelineSelection, WanSpec,
};
use pm_sdwan::NetCache;
use pm_simctl::{TimelineParams, TimelineReport, TimelineSpace};
use pm_topo::rng::DetRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Untraced runs make at least this many passes, so `setup_s` and the
/// throughput figures are medians of several measurements.
const MIN_PASSES: usize = 3;

/// Seed of the fixed WAN every sweep workload runs on.
const WAN_SEED: u64 = 42;
const CONTROLLERS: usize = 32;
const FAILURES: usize = 3;
const FLOWS: usize = 1024;
const HEADROOM: f64 = 1.5;

/// Timeline space size (the `timeline_sweep` default) and the seeded
/// sample of it one pass replays.
const TIMELINE_SPACE: u64 = 10_000;
const TIMELINES_PER_PASS: u64 = 1000;
/// Timelines replayed again against a freshly built cache per pass
/// (another seeded sample each pass).
const TIMELINE_COLD: usize = 192;

/// Digests of the deterministic per-case rows at [`DEFAULT_SEED`].
const DIGEST_SWEEP_SETUP: u64 = 0xb244_c839_ecfb_7d2f;
const DIGEST_SWEEP_CASES: u64 = 0x5fc5_77a4_2de3_1a6b;
const DIGEST_TIMELINE: u64 = 0xac2c_b867_fd75_b58b;

struct SweepShape {
    nodes: usize,
    /// Seeded sample size; `None` sweeps every case.
    sample: Option<u64>,
    /// Cases re-solved cold per pass (another seeded sample each pass).
    cold: usize,
    digest_at_default_seed: u64,
}

fn shape(w: Workload) -> SweepShape {
    match w {
        // 1024 cases: a case phase long enough (~3 s) for a steady
        // per-pass cases_per_s next to the ~9 s set-up. 384 cold cases:
        // with 96, the median of the cold sample moved ±15% from pass to
        // pass with the cases drawn.
        Workload::SweepSetup => SweepShape {
            nodes: 10_000,
            sample: Some(1024),
            cold: 384,
            digest_at_default_seed: DIGEST_SWEEP_SETUP,
        },
        _ => SweepShape {
            nodes: 1000,
            sample: Some(4096),
            cold: 512,
            digest_at_default_seed: DIGEST_SWEEP_CASES,
        },
    }
}

fn wan_spec(nodes: usize) -> WanSpec {
    WanSpec {
        nodes,
        controllers: CONTROLLERS,
        flows: FLOWS,
        headroom: HEADROOM,
        seed: WAN_SEED,
    }
}

fn engine_options(seed: u64, sample: Option<u64>) -> EvalOptions {
    EvalOptions {
        skip_optimal: true,
        eager_warm: false,
        jobs: JOBS,
        max_scenarios: sample,
        seed,
        ..Default::default()
    }
}

/// The `scale_cases` columns of one case: plan metrics only, no clock.
fn case_row(case: &CaseResult) -> Vec<String> {
    let m = |name: &str| &case.run(name).expect("heuristics always run").metrics;
    let pm = case.run("PM").expect("PM always runs");
    vec![
        case.label.clone(),
        pm.metrics.offline_switches.to_string(),
        pm.metrics.offline_flows.to_string(),
        m("RetroFlow").total_programmability.to_string(),
        pm.metrics.total_programmability.to_string(),
        m("PG").total_programmability.to_string(),
        m("RetroFlow").recovered_flows.to_string(),
        pm.metrics.recovered_flows.to_string(),
        m("PG").recovered_flows.to_string(),
        format!("{:.6}", pm.total_delay),
    ]
}

/// `count` distinct positions of `0..len`, drawn from `seed` and the
/// pass index.
fn sample_positions(len: u64, count: usize, seed: u64, index: u64) -> Vec<u64> {
    let mut rng =
        DetRng::seed_from_u64(seed ^ 0xc01d_c0de_5eed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut picked: Vec<u64> = Vec::new();
    while picked.len() < count.min(len as usize) {
        let p = rng.next_u64() % len;
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked.sort_unstable();
    picked
}

/// `f(0..n)` on [`JOBS`] threads that claim indices one at a time, as
/// the program's own sweep workers do; results in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..JOBS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                slots.lock().expect("no worker panicked")[i] = Some(v);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|v| v.expect("every index claimed"))
        .collect()
}

/// Timings of one pass.
struct Pass {
    setup_s: f64,
    work_s: f64,
    items: usize,
    plans: usize,
    /// Per-item time on the program's normal path, in µs: the three
    /// algorithm runs of a case with the worker's carried workspace, or
    /// the generate + replay of a timeline.
    warm_us: Vec<f64>,
    /// The same per-item time computed from scratch, in µs: the three
    /// algorithm runs on a fresh scenario and workspace, or the generate
    /// + replay of a timeline on a freshly built cache.
    cold_us: Vec<f64>,
    /// Worker busy share of the dispatch window, when known.
    busy_frac: Option<f64>,
    edges: usize,
}

fn digest_check(
    out: &mut Outcome,
    what: &str,
    seed: u64,
    expected: u64,
    first: &mut Option<u64>,
    got: u64,
    items: usize,
) {
    let want = if seed == DEFAULT_SEED {
        expected
    } else {
        *first.get_or_insert(got)
    };
    let ok = got == want;
    for _ in 0..items {
        out.check(ok, || format!("{what} digest {got:016x} != {want:016x}"));
    }
}

fn sweep_pass(
    sh: &SweepShape,
    seed: u64,
    index: u64,
    out: &mut Outcome,
    first_digest: &mut Option<u64>,
    window: Option<&mut Window>,
) -> Pass {
    let t0 = Instant::now();
    let setup_span = pm_obs::span("perfbench.setup");
    let wan = {
        let _s = pm_obs::span("perfbench.build_wan");
        build_wan(&wan_spec(sh.nodes))
    };
    let engine = {
        let _s = pm_obs::span("perfbench.engine");
        SweepEngine::new(&wan.net, engine_options(seed, sh.sample))
    };
    drop(setup_span);
    let setup_s = t0.elapsed().as_secs_f64();

    let sel = engine.selection(FAILURES);
    let t1 = Instant::now();
    let cases = {
        let _s = pm_obs::span("perfbench.cases");
        engine.sweep_selection(&sel)
    };
    let work_s = t1.elapsed().as_secs_f64();
    if let Some(w) = window {
        w.capture();
    }

    let rows: Vec<Vec<String>> = cases.iter().map(case_row).collect();
    digest_check(
        out,
        "case rows",
        seed,
        sh.digest_at_default_seed,
        first_digest,
        digest_rows(&rows),
        rows.len(),
    );
    let warm_us = cases.iter().map(algorithm_us).collect();
    let plans = cases.iter().map(|c| c.runs.len()).sum();

    // Cold re-solves: a fresh scenario and workspace per case, which is
    // exactly the `incremental: false` path, must reproduce the rows the
    // delta chain produced.
    let positions = sample_positions(sel.len(), sh.cold, seed, index);
    let cold = {
        let _s = pm_obs::span("perfbench.cold");
        par_map(positions.len(), |i| {
            engine.run_case(&sel.scenario_at(positions[i]))
        })
    };
    let mut cold_us = Vec::with_capacity(cold.len());
    for (case, &pos) in cold.iter().zip(&positions) {
        cold_us.push(algorithm_us(case));
        let ok = case_row(case) == rows[pos as usize];
        out.check(ok, || format!("cold re-solve of {} differs", case.label));
    }
    Pass {
        setup_s,
        work_s,
        items: cases.len(),
        plans,
        warm_us,
        cold_us,
        busy_frac: None,
        edges: wan.edges,
    }
}

/// Time of a case's algorithm runs (PM, RetroFlow, PG) in µs, as each
/// run clocks its own `recover`. The scenario, instance build, plan
/// validation and metrics of the case are outside it; only the
/// throughput figures cover them.
fn algorithm_us(case: &CaseResult) -> f64 {
    case.runs
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .sum::<f64>()
        * 1e6
}

/// One replayed timeline and its generate + replay time in µs.
type Replayed = (Result<TimelineReport, String>, f64);

fn timeline_pass(
    seed: u64,
    index: u64,
    out: &mut Outcome,
    first_digest: &mut Option<u64>,
    window: Option<&mut Window>,
) -> Pass {
    let t0 = Instant::now();
    let setup_span = pm_obs::span("perfbench.setup");
    let wan = {
        let _s = pm_obs::span("perfbench.build_wan");
        build_wan(&wan_spec(1000))
    };
    let engine = {
        let _s = pm_obs::span("perfbench.engine");
        SweepEngine::new(&wan.net, engine_options(seed, None))
    };
    drop(setup_span);
    let setup_s = t0.elapsed().as_secs_f64();

    let net = &wan.net;
    let cache = engine.cache();
    let space = TimelineSpace::new(
        net.controllers().len(),
        net.flows().len(),
        seed,
        TIMELINE_SPACE,
        TimelineParams::default(),
    );
    let sel = TimelineSelection::sampled(TIMELINE_SPACE, TIMELINES_PER_PASS, seed);
    let total = sel.len() as usize;

    let t1 = Instant::now();
    let replayed: Vec<Replayed> = {
        let _s = pm_obs::span("perfbench.cases");
        par_map(total, |pos| {
            let t = Instant::now();
            let timeline = {
                let _s = pm_obs::span("perfbench.generate");
                space.generate(sel.id_at(pos as u64))
            };
            let report = {
                let _s = pm_obs::span("perfbench.replay");
                timeline.replay(net, cache).map_err(|e| e.to_string())
            };
            (report, t.elapsed().as_secs_f64() * 1e6)
        })
    };
    let work_s = t1.elapsed().as_secs_f64();
    if let Some(w) = window {
        w.capture();
    }

    let mut reports = Vec::with_capacity(total);
    let mut warm_us = Vec::with_capacity(total);
    for (pos, (report, us)) in replayed.into_iter().enumerate() {
        match report {
            Ok(r) => {
                reports.push(r);
                warm_us.push(us);
            }
            Err(e) => out.check(false, || format!("timeline at position {pos}: {e}")),
        }
    }
    let busy_frac = warm_us.iter().sum::<f64>() / 1e6 / (JOBS as f64 * work_s);
    digest_check(
        out,
        "timeline rows",
        seed,
        DIGEST_TIMELINE,
        first_digest,
        digest_rows(&timeline_rows(&reports)),
        reports.len(),
    );
    let plans = 2 * reports.iter().map(|r| r.solves).sum::<usize>();

    // Cold replays against a cache built afresh: same event log.
    let mut cold_us = Vec::with_capacity(TIMELINE_COLD);
    if reports.len() == total {
        let positions = sample_positions(sel.len(), TIMELINE_COLD, seed, index);
        let again = {
            let _s = pm_obs::span("perfbench.cold");
            let fresh = NetCache::build(net);
            par_map(positions.len(), |i| {
                let t = Instant::now();
                let r = space.generate(sel.id_at(positions[i])).replay(net, &fresh);
                (r, t.elapsed().as_secs_f64() * 1e6)
            })
        };
        for ((again, us), &pos) in again.into_iter().zip(&positions) {
            cold_us.push(us);
            let want = &reports[pos as usize];
            let ok = again.is_ok_and(|r| r.event_log() == want.event_log());
            out.check(ok, || {
                format!("cold replay of timeline {} differs", want.id)
            });
        }
    }
    Pass {
        setup_s,
        work_s,
        items: total,
        plans,
        warm_us,
        cold_us,
        busy_frac: Some(busy_frac),
        edges: wan.edges,
    }
}

/// Runs passes until `budget` is spent (untraced) or once (traced), then
/// reports end-to-end or per-layer metrics. A traced run checks that
/// simctl's own re-solve time shows up exactly when the workload
/// `reaches_simctl`.
fn drive(
    mut pass: impl FnMut(u64, &mut Outcome, Option<&mut Window>) -> Pass,
    budget: Duration,
    reference: Option<&Reference>,
    reaches_simctl: bool,
) -> Outcome {
    let mut out = Outcome::default();
    if let Some(reference) = reference {
        let mut window = Window::start();
        let p = pass(0, &mut out, Some(&mut window));
        let traced_wall = p.setup_s + p.work_s;
        let untraced_wall = reference.get("wall_s").unwrap_or(traced_wall);
        println!(
            "tracing overhead: traced pass {traced_wall:.4} s vs untraced median wall_s \
             {untraced_wall:.4} s ({:+.1}%)",
            100.0 * (traced_wall / untraced_wall - 1.0)
        );
        out.metrics = layers::per_layer(
            &window,
            &layers::Facts {
                jobs: JOBS,
                edges: p.edges,
                busy_frac: p.busy_frac,
                trace_overhead_frac: traced_wall / untraced_wall - 1.0,
                serve: None,
            },
        );
        let solve_self_s = out
            .metrics
            .iter()
            .find(|m| m.name == "simctl.solve_self_s")
            .map_or(0.0, |m| m.value);
        out.check((solve_self_s > 0.0) == reaches_simctl, || {
            format!("simctl.solve_self_s is {solve_self_s} s")
        });
        return out;
    }

    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let p = pass(passes.len() as u64, &mut out, None);
        eprintln!(
            "perfbench: pass {}: set-up {:.4} s, {} item(s) in {:.4} s",
            passes.len() + 1,
            p.setup_s,
            p.items,
            p.work_s
        );
        passes.push(p);
    }
    let med =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let warm_n = passes[0].warm_us.len();
    // The cold samples of all passes are pooled: each pass draws other
    // cases, so the pool is a larger sample than any one pass.
    let cold_pool: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cold_us.iter().copied())
        .collect();
    let n = passes.len();
    let per_pass = |samples: usize, q: f64| {
        format!("median over {n} passes ({} each)", sample_note(samples, q))
    };
    // The p99 of a few-millisecond computation mostly measures the
    // machine's scheduling stalls; it is printed, and p90 is the metric.
    println!(
        "per-item p99 {:.1} us, {}",
        med(&|p| percentile(&p.warm_us, 0.99)),
        per_pass(warm_n, 0.99)
    );
    out.metrics = vec![
        metric("wall_s", med(&|p| p.setup_s + p.work_s), "s")
            .noted(format!("median of {n} passes")),
        metric("setup_s", med(&|p| p.setup_s), "s").noted(format!("median of {n} set-ups")),
        metric("cases_per_s", med(&|p| p.items as f64 / p.work_s), "1/s"),
        metric("plans_per_s", med(&|p| p.plans as f64 / p.work_s), "1/s"),
        metric("p50_us", med(&|p| percentile(&p.warm_us, 0.5)), "us").noted(per_pass(warm_n, 0.5)),
        metric("p90_us", med(&|p| percentile(&p.warm_us, 0.9)), "us").noted(per_pass(warm_n, 0.9)),
        metric("cold_p50_us", percentile(&cold_pool, 0.5), "us").noted(format!(
            "pooled over {n} passes ({})",
            sample_note(cold_pool.len(), 0.5)
        )),
        metric("peak_rss_mb", crate::sysinfo::peak_rss_mb(), "MiB"),
    ];
    out
}

pub fn run_sweep(
    w: Workload,
    seed: u64,
    budget: Duration,
    reference: Option<&Reference>,
) -> Outcome {
    let sh = shape(w);
    let mut first = None;
    drive(
        |index, out, window| sweep_pass(&sh, seed, index, out, &mut first, window),
        budget,
        reference,
        false,
    )
}

pub fn run_timeline(seed: u64, budget: Duration, reference: Option<&Reference>) -> Outcome {
    let mut first = None;
    drive(
        |index, out, window| timeline_pass(seed, index, out, &mut first, window),
        budget,
        reference,
        true,
    )
}
