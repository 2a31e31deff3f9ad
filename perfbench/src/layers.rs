//! Per-layer metrics of a traced run, read from the `pm_obs` recorder:
//! span totals, self times (`pm_obs::prof::self_times`), counters and
//! histograms. Layers are named after the crates that do the work.
//!
//! The benchmark's own spans (`perfbench.*`) frame the run: every
//! `perfbench.setup` interval runs on the main thread, and each parallel
//! phase (`perfbench.cases`, `perfbench.serving`) stands for that many
//! worker threads' time. Self times of all other spans then add up to
//! the thread time, and what they do not cover is reported as the
//! unattributed remainder.

use crate::{metric, Metric};
use pm_obs::prof::{recorded_spans, self_times, SpanInfo};
use std::time::Instant;

/// Spans that stand for a parallel phase: the main thread waits inside
/// them while worker threads do the work.
const PARALLEL_SPANS: [&str; 2] = ["perfbench.cases", "perfbench.serving"];

/// The traced stretch of a run: recorder switched on at the start, its
/// state copied by [`Window::capture`] at the end of the measured work
/// (later correctness checks stay out of the figures).
pub struct Window {
    t0: Instant,
    cpu0: f64,
    wall_s: f64,
    cpu_s: f64,
    spans: Vec<SpanInfo>,
    snap: pm_obs::Snapshot,
}

impl Window {
    pub fn start() -> Window {
        pm_obs::enable();
        Window {
            t0: Instant::now(),
            cpu0: crate::sysinfo::cpu_seconds(),
            wall_s: 0.0,
            cpu_s: 0.0,
            spans: Vec::new(),
            snap: pm_obs::Snapshot::default(),
        }
    }

    pub fn capture(&mut self) {
        self.wall_s = self.t0.elapsed().as_secs_f64();
        self.cpu_s = crate::sysinfo::cpu_seconds() - self.cpu0;
        self.spans = recorded_spans();
        self.snap = pm_obs::snapshot();
    }

    fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_ns as f64)
            / 1e9
    }

    /// Completed spans named `name` in the captured window.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Counter `name` in the captured window.
    pub fn count(&self, name: &str) -> u64 {
        self.count_where(|n| n == name)
    }

    fn count_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.snap
            .counters
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|&(_, v)| v)
            .sum()
    }
}

/// Serving-path figures measured outside the recorder.
pub struct ServeFacts {
    pub workers: usize,
    pub store_lookup_ns: f64,
    pub fallback_solve_us: f64,
    pub http_overhead_us: f64,
    pub response_bytes: f64,
    pub paced_p99_us: f64,
    pub pacer_late_p99_us: f64,
    pub store_hit_pm_solves: u64,
}

/// What a workload knows about its traced pass besides the recorder.
pub struct Facts {
    pub jobs: usize,
    pub edges: usize,
    /// Worker busy share measured by the workload itself, when the
    /// program's dispatcher does not count it.
    pub busy_frac: Option<f64>,
    pub trace_overhead_frac: f64,
    pub serve: Option<ServeFacts>,
}

/// The crate a span's time belongs to.
fn layer_of(name: &str) -> &'static str {
    match name {
        "scale.topology" => "topo",
        "scale.placement" | "scale.build" | "sweep.case" | "store.solve" => "sdwan",
        "sweep.instance" | "bench.algo" => "pm",
        _ if name.starts_with("topo.") => "topo",
        _ if name.starts_with("sdwan.") => "sdwan",
        _ if ["pm.", "pg.", "retroflow.", "optimal.", "milp."]
            .iter()
            .any(|p| name.starts_with(p)) =>
        {
            "pm"
        }
        _ if name.starts_with("sim.") => "simctl",
        _ => "bench",
    }
}

/// Prints the self-time table and returns the unattributed remainder of
/// the thread time, in seconds.
fn self_time_report(w: &Window, threads: usize) -> f64 {
    let selfs = self_times(&w.spans);
    let parallel: f64 = PARALLEL_SPANS.iter().map(|n| w.total_s(n)).sum();
    let thread_s = w.total_s("perfbench.setup") + threads as f64 * parallel;
    let mut by_layer: Vec<(&str, f64)> = Vec::new();
    for s in selfs
        .iter()
        .filter(|s| !PARALLEL_SPANS.contains(&s.name.as_str()))
    {
        let layer = layer_of(&s.name);
        let secs = s.self_ns as f64 / 1e9;
        match by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += secs,
            None => by_layer.push((layer, secs)),
        }
    }
    let attributed: f64 = by_layer.iter().map(|(_, t)| t).sum();
    let unattributed = thread_s - attributed;
    println!(
        "\nself time by layer (thread time {thread_s:.4} s = set-up + {threads} x parallel phase)"
    );
    for (layer, t) in &by_layer {
        println!("  {layer:<14} {t:>10.4} s  {:>5.1}%", 100.0 * t / thread_s);
    }
    println!(
        "  {:<14} {unattributed:>10.4} s  {:>5.1}%",
        "unattributed",
        100.0 * unattributed / thread_s
    );
    println!("self time by span:");
    for s in &selfs {
        println!(
            "  {:<26} {:>8} x  self {:>10.4} s  total {:>10.4} s",
            s.name,
            s.count,
            s.self_ns as f64 / 1e9,
            s.total_ns as f64 / 1e9
        );
    }
    unattributed
}

pub fn per_layer(w: &Window, facts: &Facts) -> Vec<Metric> {
    let threads = facts.serve.as_ref().map_or(facts.jobs, |s| s.workers);
    let unattributed = self_time_report(w, threads);
    let selfs = self_times(&w.spans);
    let self_s = |name: &str| {
        selfs
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e9)
    };
    let parallel_s: f64 = PARALLEL_SPANS.iter().map(|n| w.total_s(n)).sum();
    let busy_frac = facts.busy_frac.unwrap_or_else(|| {
        let busy = w.count_where(|n| n.starts_with("sweep.worker.") && n.ends_with(".busy_ns"));
        if parallel_s > 0.0 && facts.serve.is_none() {
            busy as f64 / 1e9 / (facts.jobs as f64 * parallel_s)
        } else {
            0.0
        }
    });
    let queue_wait_s = w
        .snap
        .histograms
        .iter()
        .find(|(n, _)| n == "sweep.queue_wait_ns")
        .map_or(0.0, |(_, h)| h.sum() as f64 / 1e9);
    let sv = facts.serve.as_ref();
    let serve_f = |f: fn(&ServeFacts) -> f64| sv.map_or(0.0, f);
    let cnt = |name: &str| w.count(name) as f64;
    vec![
        metric("topo.waxman_s", w.total_s("scale.topology"), "s"),
        metric("topo.edges", facts.edges as f64, "count"),
        metric("sdwan.placement_s", w.total_s("scale.placement"), "s"),
        metric("sdwan.build_s", w.total_s("scale.build"), "s"),
        metric("sdwan.netcache_s", w.total_s("sdwan.netcache.build"), "s"),
        metric(
            "sdwan.case_glue_s",
            self_s("sweep.case") + self_s("store.solve"),
            "s",
        ),
        metric(
            "sdwan.delta_swaps",
            cnt("sweep.scenario.delta_swaps"),
            "count",
        ),
        metric("pm.instance_s", w.total_s("sweep.instance"), "s"),
        metric("pm.pm_s", w.total_s("pm.recover"), "s"),
        metric("pm.phase1_s", w.total_s("pm.phase1"), "s"),
        metric("pm.phase2_s", w.total_s("pm.phase2"), "s"),
        metric("pm.retroflow_s", w.total_s("retroflow.recover"), "s"),
        metric("pm.pg_s", w.total_s("pg.recover"), "s"),
        metric("pm.passes", cnt("pm.passes"), "count"),
        metric("pm.flows_touched", cnt("retroflow.flows_touched"), "count"),
        metric("pg.rounds", cnt("pg.rounds"), "count"),
        metric("simctl.generate_s", w.total_s("perfbench.generate"), "s"),
        metric("simctl.replay_s", w.total_s("perfbench.replay"), "s"),
        metric("simctl.solve_self_s", self_s("sim.timeline.solve"), "s"),
        metric("simctl.solves", cnt("sim.timeline.solves"), "count"),
        metric("simctl.events", cnt("sim.timeline.events"), "count"),
        metric("bench.worker_busy_frac", busy_frac, "frac"),
        metric("bench.queue_wait_s", queue_wait_s, "s"),
        metric("bench.unattributed_s", unattributed, "s"),
        metric("bench.store_build_s", w.total_s("store.build"), "s"),
        metric(
            "bench.store_lookup_ns",
            serve_f(|s| s.store_lookup_ns),
            "ns",
        ),
        metric(
            "bench.fallback_solve_us",
            serve_f(|s| s.fallback_solve_us),
            "us",
        ),
        metric("bench.paced_p99_us", serve_f(|s| s.paced_p99_us), "us"),
        metric(
            "bench.pacer_late_p99_us",
            serve_f(|s| s.pacer_late_p99_us),
            "us",
        ),
        metric(
            "bench.store_hit_pm_solves",
            sv.map_or(0.0, |s| s.store_hit_pm_solves as f64),
            "count",
        ),
        metric(
            "obs.http_overhead_us",
            serve_f(|s| s.http_overhead_us),
            "us",
        ),
        metric("obs.response_bytes", serve_f(|s| s.response_bytes), "bytes"),
        metric("obs.requests", cnt("obs.serve.requests"), "count"),
        metric("obs.trace_overhead_frac", facts.trace_overhead_frac, "frac"),
        metric(
            "cpu_util",
            w.cpu_s / (w.wall_s * crate::sysinfo::nproc() as f64),
            "frac",
        ),
    ]
}
