//! End-to-end and per-layer benchmark of the ProgrammabilityMedic
//! reproduction.
//!
//! Four workloads, each run in its own process from a seed:
//!
//! | workload      | what it drives                                            |
//! |---------------|-----------------------------------------------------------|
//! | `sweep-setup` | 10k-switch Waxman WAN, 1024 sampled f = 3 cases, 2 workers|
//! | `sweep-cases` | 1k-switch Waxman WAN, 4096 sampled f = 3 cases, 2 workers |
//! | `timeline`    | 1k-switch WAN, seeded failure timelines via `replay`      |
//! | `serve`       | self-hosted `pmd` on the ATT setup, 2 loopback clients    |
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, read from the
//! `pm_obs` recorder after an untraced reference run of the same
//! workload in a child process (the difference is the tracing overhead).
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload sweep-cases --seed 42 --seconds 10 --trace 0`

mod layers;
mod serve;
mod stats;
mod sweeps;
mod sysinfo;

use std::process::ExitCode;
use std::time::Duration;

/// The seed whose correctness digests are recorded in the source.
pub const DEFAULT_SEED: u64 = 42;

/// Worker threads and client connections: the 2-core box the benchmark
/// was sized on, shared by client and server.
pub const JOBS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepSetup,
    SweepCases,
    Timeline,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "sweep-setup" => Workload::SweepSetup,
            "sweep-cases" => Workload::SweepCases,
            "timeline" => Workload::Timeline,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSetup => "sweep-setup",
            Workload::SweepCases => "sweep-cases",
            Workload::Timeline => "timeline",
            Workload::Serve => "serve",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!(
                    "unknown workload {v}; expected sweep-setup, sweep-cases, timeline or serve"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text note printed next to the value (e.g. a sample count).
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    pub fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// The untraced figures a traced run compares itself against.
#[derive(Debug, Clone)]
pub struct Reference {
    pub metrics: Vec<(String, f64)>,
    pub correct: bool,
}

impl Reference {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs this binary again with `--trace 0` on the same workload and
/// seed, and reads the end-to-end metrics off its last stdout line.
fn untraced_reference(args: &Args) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the untraced reference: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced reference exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = pm_obs::json::parse(last).map_err(|e| format!("reference output: {e}"))?;
    let correct = matches!(doc.get("correct"), Some(pm_obs::json::Value::Bool(true)));
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.members())
        .ok_or("reference output has no metrics")?
        .iter()
        .filter_map(|(name, v)| match v.get("value") {
            Some(pm_obs::json::Value::Num(x)) => Some((name.clone(), *x)),
            _ => None,
        })
        .collect();
    Ok(Reference { metrics, correct })
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Full-precision JSON number; non-finite values (which a correct run
/// never produces) degrade to 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sweep-setup|sweep-cases|timeline|serve \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let facts = sysinfo::Facts::gather(&args);
    println!("{}", facts.render());

    let reference = if args.trace {
        match untraced_reference(&args) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut outcome = match args.workload {
        Workload::SweepSetup | Workload::SweepCases => {
            sweeps::run_sweep(args.workload, args.seed, budget, reference.as_ref())
        }
        Workload::Timeline => sweeps::run_timeline(args.seed, budget, reference.as_ref()),
        Workload::Serve => serve::run(args.seed, budget, reference.as_ref()),
    };
    if let Some(r) = &reference {
        if !r.correct {
            eprintln!("perfbench: the untraced reference run reported failures");
            outcome.failed += 1;
            outcome.attempted += 1;
        }
    }

    println!(
        "\n{} ({}), seed {}: {} operation(s) attempted, {} failed",
        args.workload.name(),
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end, untraced"
        },
        args.seed,
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!(
            "  {:<28} {:>16} {:<6} {}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.note
        );
    }
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}
