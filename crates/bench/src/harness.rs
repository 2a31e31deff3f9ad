//! Evaluation options, and the four algorithms run on one failure case
//! with their metrics collected.

use crate::events::EventLog;
use pm_core::{FmssmInstance, Optimal, Pg, Pm, PmWorkspace, RecoveryAlgorithm, RetroFlow, Solved};
use pm_sdwan::{ControllerId, PlanMetrics, SdWan};
use std::sync::Arc;
use std::time::Duration;

/// Evaluation options shared by the figure binaries, parsed from the
/// command line by [`EvalOptions::from_args`].
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Wall-clock budget per Optimal solve (`--opt-secs N`, default 20).
    pub optimal_time_limit: Duration,
    /// Skip the Optimal baseline entirely (`--skip-optimal`) — useful for
    /// quick looks; PM/PG/RetroFlow run in milliseconds.
    pub skip_optimal: bool,
    /// Directory to write per-figure CSV files into (`--csv DIR`).
    pub csv_dir: Option<std::path::PathBuf>,
    /// Worker threads for the failure sweep (`--jobs N`, default: all
    /// cores). Metric output is identical for every value; per-case
    /// wall-clock measurements contend for cores at higher counts.
    pub jobs: usize,
    /// Write a Chrome `trace_event` JSON file here at exit (`--trace
    /// FILE`). Implies enabling the [`pm_obs`] recorder.
    pub trace_path: Option<std::path::PathBuf>,
    /// Write the aggregated metrics JSON file here at exit (`--metrics
    /// FILE`). Implies enabling the [`pm_obs`] recorder.
    pub metrics_path: Option<std::path::PathBuf>,
    /// Write the metrics in Prometheus text exposition format here at
    /// exit (`--prom FILE`). Implies enabling the [`pm_obs`] recorder.
    pub prom_path: Option<std::path::PathBuf>,
    /// Stream structured per-case progress events while sweeping
    /// (`--events FILE` for a JSONL file, `--progress` for a rate-limited
    /// stderr line; either one activates the log). Does not require the
    /// recorder and never changes sweep results.
    pub events: Option<Arc<EventLog>>,
    /// Run only shard `i` of `m` of each sweep's scenario sequence
    /// (`--shard i/m`, 1-based). Shards partition the rank space
    /// contiguously, so the m shard outputs concatenated in shard order
    /// are byte-identical to the unsharded run.
    pub shard: Option<(usize, usize)>,
    /// Cap each sweep at this many scenarios (`--max-scenarios N`). When
    /// the space is larger, ranks are drawn without replacement from a
    /// [`pm_topo::rng::DetRng`] seeded with [`EvalOptions::seed`]; when it
    /// already fits the budget, the sweep stays exhaustive.
    pub max_scenarios: Option<u64>,
    /// Seed for scenario subsampling (`--seed N`, default 42). Unused
    /// unless `--max-scenarios` actually forces a sample.
    pub seed: u64,
    /// Scenarios a worker claims and materializes per dispatch round
    /// (`--batch N`, default 32). Live scenario storage during a
    /// streaming sweep is bounded by `jobs × batch` entries.
    pub batch: usize,
    /// Eagerly warm the whole topology cache when the engine is built
    /// (default). Scale binaries switch this off so only the
    /// shortest-path state the sweep actually touches is computed.
    pub eager_warm: bool,
    /// Walk each worker's claimed scenario blocks incrementally (default):
    /// consecutive colex-adjacent failure sets are patched in place with
    /// [`pm_sdwan::FailureScenario::apply_delta`] and the PM heuristic
    /// reuses a per-worker workspace, instead of rebuilding everything per
    /// case. Results are byte-identical either way (`--no-incremental`
    /// forces the cold recompute path, e.g. to verify exactly that).
    pub incremental: bool,
    /// Serve live telemetry over HTTP while the run is in flight
    /// (`--serve ADDR`, e.g. `127.0.0.1:9464`; port `0` picks an
    /// ephemeral port, printed to stderr). Implies the recorder and a
    /// sampler at the default interval. Serving only reads recorder
    /// snapshots, so results never change.
    pub serve: Option<String>,
    /// Interval-snapshot the recorder every this many milliseconds
    /// (`--sample-interval MS`; `--serve` implies 250). Feeds the
    /// `timeseries` section of the metrics JSON and `/timeseries.json`.
    pub sample_interval_ms: Option<u64>,
    /// Arm the flight recorder and write its dump here on panic
    /// (`--flight FILE`): the last K spans per thread and counter deltas,
    /// for post-mortem debugging at scale without a full trace.
    pub flight_path: Option<std::path::PathBuf>,
    /// Run the span-stack sampling profiler for the duration of the run
    /// and write the folded-stack profile here at exit (`--profile
    /// FILE`) — Brendan Gregg's format, ready for `inferno-flamegraph`,
    /// `flamegraph.pl`, speedscope or `pmctl obs flame`. Implies the
    /// recorder; sampling never changes results.
    pub profile_path: Option<std::path::PathBuf>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            optimal_time_limit: Duration::from_secs(20),
            skip_optimal: false,
            csv_dir: None,
            jobs: crate::par::default_jobs(),
            trace_path: None,
            metrics_path: None,
            prom_path: None,
            events: None,
            shard: None,
            max_scenarios: None,
            seed: 42,
            batch: 32,
            eager_warm: true,
            incremental: true,
            serve: None,
            sample_interval_ms: None,
            flight_path: None,
            profile_path: None,
        }
    }
}

/// RAII guard for the live telemetry plane: the interval sampler, the
/// HTTP listener and the armed flight recorder, whichever of them the
/// options requested. Hold it for the duration of the measured work —
/// dropping it takes the sampler's final interval and closes the
/// listener. Obtained from [`EvalOptions::start_telemetry_plane`].
#[derive(Debug, Default)]
pub struct TelemetryPlane {
    // Declaration order is drop order: stop serving before the profiler
    // and sampler take their final snapshots, so the last scrape a
    // client sees is never mid-teardown.
    server: Option<pm_obs::MetricsServer>,
    profiler: Option<pm_obs::Profiler>,
    sampler: Option<pm_obs::Sampler>,
}

impl TelemetryPlane {
    /// The listener's bound address, when `--serve` was given — the way
    /// to learn the real port after binding port 0.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }

    /// Whether any part of the plane (sampler, profiler or listener) is
    /// live.
    pub fn is_active(&self) -> bool {
        self.server.is_some() || self.profiler.is_some() || self.sampler.is_some()
    }
}

impl EvalOptions {
    /// Parses the common flags from `std::env::args`. Unknown flags abort
    /// with a usage message.
    pub fn from_args() -> Self {
        let mut rest = Vec::new();
        let opts = Self::from_args_partial(std::env::args().skip(1), &mut rest);
        if let Some(other) = rest.first() {
            eprintln!("unknown flag {other}; try --help");
            std::process::exit(2);
        }
        opts
    }

    /// Parses the common flags out of `args`, pushing anything it does not
    /// recognize onto `rest` in order — binaries with extra flags (e.g.
    /// `scale_sweep`) parse those from `rest` afterwards.
    pub fn from_args_partial(args: impl Iterator<Item = String>, rest: &mut Vec<String>) -> Self {
        let mut opts = EvalOptions::default();
        let mut events_path: Option<std::path::PathBuf> = None;
        let mut progress = false;
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--opt-secs" => {
                    let v = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--opt-secs needs an integer argument");
                        std::process::exit(2);
                    });
                    opts.optimal_time_limit = Duration::from_secs(v);
                }
                "--skip-optimal" => opts.skip_optimal = true,
                "--jobs" => {
                    let v: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--jobs needs a positive integer argument");
                        std::process::exit(2);
                    });
                    if v == 0 {
                        eprintln!("--jobs needs a positive integer argument");
                        std::process::exit(2);
                    }
                    opts.jobs = v;
                }
                "--csv" => {
                    let dir = args.next().unwrap_or_else(|| {
                        eprintln!("--csv needs a directory argument");
                        std::process::exit(2);
                    });
                    opts.csv_dir = Some(dir.into());
                }
                "--trace" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--trace needs a file argument");
                        std::process::exit(2);
                    });
                    opts.trace_path = Some(file.into());
                    pm_obs::enable();
                }
                "--metrics" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--metrics needs a file argument");
                        std::process::exit(2);
                    });
                    opts.metrics_path = Some(file.into());
                    pm_obs::enable();
                }
                "--prom" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--prom needs a file argument");
                        std::process::exit(2);
                    });
                    opts.prom_path = Some(file.into());
                    pm_obs::enable();
                }
                "--events" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--events needs a file argument");
                        std::process::exit(2);
                    });
                    events_path = Some(file.into());
                }
                "--progress" => progress = true,
                "--shard" => {
                    let spec = args.next().unwrap_or_else(|| {
                        eprintln!("--shard needs an i/m argument, e.g. --shard 2/4");
                        std::process::exit(2);
                    });
                    opts.shard = Some(parse_shard(&spec).unwrap_or_else(|| {
                        eprintln!("--shard needs i/m with 1 <= i <= m, got {spec}");
                        std::process::exit(2);
                    }));
                }
                "--max-scenarios" => {
                    let v: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--max-scenarios needs an integer argument");
                        std::process::exit(2);
                    });
                    if v == 0 {
                        eprintln!("--max-scenarios needs a positive integer argument");
                        std::process::exit(2);
                    }
                    opts.max_scenarios = Some(v);
                }
                "--seed" => {
                    let v: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--seed needs an integer argument");
                        std::process::exit(2);
                    });
                    opts.seed = v;
                }
                "--batch" => {
                    let v: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--batch needs a positive integer argument");
                        std::process::exit(2);
                    });
                    if v == 0 {
                        eprintln!("--batch needs a positive integer argument");
                        std::process::exit(2);
                    }
                    opts.batch = v;
                }
                "--no-incremental" => opts.incremental = false,
                "--serve" => {
                    let addr = args.next().unwrap_or_else(|| {
                        eprintln!("--serve needs an ADDR argument, e.g. --serve 127.0.0.1:9464");
                        std::process::exit(2);
                    });
                    opts.serve = Some(addr);
                    pm_obs::enable();
                }
                "--sample-interval" => {
                    let v: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--sample-interval needs a positive integer (milliseconds)");
                        std::process::exit(2);
                    });
                    if v == 0 {
                        eprintln!("--sample-interval needs a positive integer (milliseconds)");
                        std::process::exit(2);
                    }
                    opts.sample_interval_ms = Some(v);
                    pm_obs::enable();
                }
                "--flight" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--flight needs a file argument");
                        std::process::exit(2);
                    });
                    opts.flight_path = Some(file.into());
                }
                "--profile" => {
                    let file = args.next().unwrap_or_else(|| {
                        eprintln!("--profile needs a file argument");
                        std::process::exit(2);
                    });
                    opts.profile_path = Some(file.into());
                    pm_obs::enable();
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: [--opt-secs N] [--skip-optimal] [--jobs N] [--csv DIR]\n\
                         \x20        [--shard i/m] [--max-scenarios N] [--seed N] [--batch N]\n\
                         \x20        [--trace FILE] [--metrics FILE] [--prom FILE]\n\
                         \x20        [--events FILE] [--progress] [--no-incremental]\n\
                         \x20        [--serve ADDR] [--sample-interval MS] [--flight FILE]\n\
                         \x20        [--profile FILE]\n\
                         regenerates one of the paper's evaluation artifacts;\n\
                         --shard runs only the i-th of m contiguous slices of each sweep\n\
                         --max-scenarios caps a sweep, sampling ranks without replacement\n\
                         --seed seeds the scenario sample (default 42)\n\
                         --batch sets scenarios materialized per worker dispatch (default 32)\n\
                         --trace writes a Chrome trace_event JSON (chrome://tracing, Perfetto)\n\
                         --metrics writes aggregated counters/histograms/span totals as JSON\n\
                         --prom writes the same metrics in Prometheus text exposition format\n\
                         --events streams per-case progress as JSON lines while sweeping\n\
                         --progress prints a rate-limited progress line to stderr\n\
                         --no-incremental rebuilds every scenario from scratch instead of\n\
                         \x20 patching the previous one in place (results are identical)\n\
                         --serve exposes /metrics, /metrics.json, /timeseries.json and\n\
                         \x20 /healthz over HTTP while the run is in flight (port 0 = ephemeral)\n\
                         --sample-interval snapshots interval deltas every MS milliseconds\n\
                         \x20 (--serve implies 250)\n\
                         --flight arms the flight recorder; its ring dump is written to FILE\n\
                         \x20 if the process panics\n\
                         --profile samples the live span stacks and writes a folded-stack\n\
                         \x20 flamegraph profile to FILE (inferno/speedscope/pmctl obs flame)"
                    );
                    std::process::exit(0);
                }
                _ => rest.push(a),
            }
        }
        if events_path.is_some() || progress {
            match EventLog::create(events_path.as_deref(), progress) {
                Ok(log) => opts.events = Some(Arc::new(log)),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        opts
    }

    /// Starts whichever parts of the live telemetry plane the options ask
    /// for — the flight recorder's panic hook (`--flight`), the interval
    /// sampler (`--sample-interval`, implied at 250 ms by `--serve`), the
    /// span-stack profiler (`--profile`) and the HTTP listener
    /// (`--serve`) — and returns the guard that keeps them alive. Call
    /// once, before the measured work, and hold the guard until after
    /// [`export_observability`](Self::export_observability) so exported
    /// metrics include the captured time series and profile. With none of
    /// the flags set this is free and returns an inert guard.
    ///
    /// A `--serve` address that fails to bind aborts the run: silently
    /// continuing without the endpoint the user asked to watch would be
    /// worse than failing fast.
    pub fn start_telemetry_plane(&self) -> TelemetryPlane {
        let mut plane = TelemetryPlane::default();
        if let Some(path) = &self.flight_path {
            pm_obs::flight::arm_panic_hook(path.clone());
        }
        if self.profile_path.is_some() {
            plane.profiler = Some(pm_obs::Profiler::start(pm_obs::ProfilerConfig::default()));
        }
        if let Some(ms) = self.sample_interval_ms.or(self.serve.as_ref().map(|_| 250)) {
            plane.sampler = Some(pm_obs::Sampler::start(pm_obs::SamplerConfig {
                interval: Duration::from_millis(ms),
                ..Default::default()
            }));
        }
        if let Some(addr) = &self.serve {
            match pm_obs::MetricsServer::serve(addr.as_str()) {
                Ok(server) => {
                    eprintln!(
                        "serving telemetry on http://{}/metrics",
                        server.local_addr()
                    );
                    plane.server = Some(server);
                }
                Err(e) => {
                    eprintln!("cannot serve telemetry on {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        plane
    }

    /// Writes the `--trace` / `--metrics` / `--prom` files from the
    /// recorder's current state and flushes the `--events` log, for
    /// whichever flags were given. Call once, after all measured work; a
    /// no-op when none are set.
    ///
    /// Failures are reported on stderr — naming the offending path — but
    /// do not abort: telemetry export must never take down a finished run.
    pub fn export_observability(&self) {
        fn export(kind: &str, path: &std::path::Path, contents: &str) {
            match pm_obs::write_artifact(kind, path, contents) {
                Ok(()) => eprintln!("{kind} written to {}", path.display()),
                Err(e) => eprintln!("warning: {e}"),
            }
        }
        if let Some(path) = &self.trace_path {
            export("trace", path, &pm_obs::chrome_trace_json());
        }
        if let Some(path) = &self.metrics_path {
            export("metrics", path, &pm_obs::metrics_json());
        }
        if let Some(path) = &self.prom_path {
            export("prometheus metrics", path, &pm_obs::prometheus_text());
        }
        if let Some(path) = &self.profile_path {
            export("profile", path, &pm_obs::prof::folded_text());
        }
        if let Some(events) = &self.events {
            if let Err(e) = events.close() {
                eprintln!("warning: {e}");
            }
        }
    }
}

/// Parses a `--shard` spec of the form `i/m` (1-based), rejecting
/// `i = 0`, `m = 0` and `i > m`.
pub fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, m) = spec.split_once('/')?;
    let i: usize = i.trim().parse().ok()?;
    let m: usize = m.trim().parse().ok()?;
    (i >= 1 && i <= m).then_some((i, m))
}

/// One algorithm's outcome on one failure case.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Algorithm display name.
    pub name: &'static str,
    /// All evaluation metrics.
    pub metrics: PlanMetrics,
    /// Wall-clock time of the recovery computation.
    pub elapsed: Duration,
    /// `Some(true)` when this is the exact solver and it proved optimality
    /// within its budget; `Some(false)` when it returned a best-effort
    /// incumbent; `None` for heuristics.
    pub proved_optimal: Option<bool>,
    /// Total control propagation delay of the plan (left side of Eq. (5)).
    pub total_delay: f64,
}

/// All algorithm runs for one failure case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The failed controllers.
    pub failed: Vec<ControllerId>,
    /// Human-readable label using the controllers' node ids, e.g.
    /// "(13,20)" — the paper labels cases this way.
    pub label: String,
    /// Per-algorithm outcomes, in a fixed order: RetroFlow, PM, PG
    /// [, Optimal].
    pub runs: Vec<AlgoRun>,
}

impl CaseResult {
    /// The run for `name`, if present.
    pub fn run(&self, name: &str) -> Option<&AlgoRun> {
        self.runs.iter().find(|r| r.name == name)
    }
}

/// Labels a failure case by the node ids of the failed controllers, the
/// way the paper writes "(13, 20)".
pub fn case_label(net: &SdWan, failed: &[ControllerId]) -> String {
    let nodes: Vec<String> = failed
        .iter()
        .map(|&c| net.controllers()[c.index()].node.index().to_string())
        .collect();
    format!("({})", nodes.join(","))
}

/// Runs RetroFlow, PM, PG and (unless [`EvalOptions::skip_optimal`])
/// Optimal on an already-built instance, each through [`pm_core::solve`]
/// under a `bench.algo` span; [`crate::SweepEngine`] calls it per case.
/// `ws` carries PM's buffers across a worker's cases.
///
/// # Panics
///
/// Panics if an algorithm fails or produces an invalid plan — both
/// indicate bugs, not data errors.
pub(crate) fn run_algorithms(
    inst: &FmssmInstance<'_, '_>,
    opts: &EvalOptions,
    ws: &mut PmWorkspace,
) -> Vec<AlgoRun> {
    let run = |solved: Solved, name, proved_optimal| AlgoRun {
        name,
        total_delay: solved.plan.total_control_delay(inst.scenario()),
        metrics: solved.metrics,
        elapsed: solved.elapsed,
        proved_optimal,
    };
    let mut runs: Vec<AlgoRun> = [
        &RetroFlow::new() as &dyn RecoveryAlgorithm,
        &Pm::new(),
        &Pg::new(),
    ]
    .into_iter()
    .map(|algo| {
        let _algo_span = pm_obs::span_labeled("bench.algo", algo.name());
        let solved = pm_core::solve(algo, inst, ws).expect("heuristic plans are valid");
        run(solved, algo.name(), None)
    })
    .collect();

    if !opts.skip_optimal {
        // `solve_detailed` rather than `solve`: the run also reports
        // whether branch-and-bound proved optimality within its budget.
        let _algo_span = pm_obs::span_labeled("bench.algo", "Optimal");
        let solver = Optimal::new().time_limit(opts.optimal_time_limit);
        let out = solver
            .solve_detailed(inst)
            .expect("warm start guarantees an incumbent");
        let proved = out.proved_optimal();
        let solved =
            Solved::check(&solver, inst, out.plan, out.elapsed).expect("optimal plan is valid");
        runs.push(run(solved, solver.name(), Some(proved)));
    }

    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepEngine;
    use pm_sdwan::SdWanBuilder;

    #[test]
    fn runs_all_algorithms_on_a_case() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            optimal_time_limit: Duration::from_secs(2),
            ..Default::default()
        };
        let case = SweepEngine::new(&net, opts).run_case(&[ControllerId(4)]);
        assert_eq!(case.runs.len(), 4);
        assert!(case.run("PM").is_some());
        assert!(case.run("Optimal").is_some());
        assert_eq!(case.label, "(20)");
    }

    #[test]
    fn skip_optimal_runs_three() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            ..Default::default()
        };
        let case = SweepEngine::new(&net, opts).run_case(&[ControllerId(0)]);
        assert_eq!(case.runs.len(), 3);
        assert!(case.run("Optimal").is_none());
    }

    #[test]
    fn shard_spec_parsing() {
        assert_eq!(parse_shard("1/1"), Some((1, 1)));
        assert_eq!(parse_shard("2/4"), Some((2, 4)));
        assert_eq!(parse_shard(" 3 / 3 "), Some((3, 3)));
        assert_eq!(parse_shard("0/4"), None, "1-based index");
        assert_eq!(parse_shard("5/4"), None, "index beyond shard count");
        assert_eq!(parse_shard("2"), None);
        assert_eq!(parse_shard("a/b"), None);
        assert_eq!(parse_shard("1/0"), None);
    }

    #[test]
    fn partial_parse_leaves_unknown_flags_in_order() {
        let args = [
            "--nodes",
            "100",
            "--skip-optimal",
            "--shard",
            "1/2",
            "--controllers",
            "8",
        ];
        let mut rest = Vec::new();
        let opts = EvalOptions::from_args_partial(args.iter().map(|s| s.to_string()), &mut rest);
        assert!(opts.skip_optimal);
        assert_eq!(opts.shard, Some((1, 2)));
        assert_eq!(rest, vec!["--nodes", "100", "--controllers", "8"]);
    }

    #[test]
    fn label_uses_node_ids() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        assert_eq!(
            case_label(&net, &[ControllerId(3), ControllerId(4)]),
            "(13,20)"
        );
    }
}
