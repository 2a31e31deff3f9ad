//! The event log's core guarantee: streaming progress never perturbs
//! sweep results.
//!
//! [`EventLog`] emission wraps the per-case closure inside
//! [`SweepEngine::sweep_selection`]; this test pins that the rendered metric
//! tables are byte-identical with the log on or off, at `--jobs 1` and
//! `--jobs 8`, and that the JSONL stream itself is well-formed (every
//! line parses, sequence numbers and done/total counts add up, worker
//! ids stay in range).

use pm_bench::figures::metrics_report;
use pm_bench::{EvalOptions, EventLog, SweepEngine};
use pm_sdwan::{SdWan, SdWanBuilder};
use pm_topo::{builders, NodeId};
use std::path::Path;
use std::sync::Arc;

fn small_net() -> SdWan {
    SdWanBuilder::new(builders::grid(3, 4))
        .controller(NodeId(0), 200)
        .controller(NodeId(3), 200)
        .controller(NodeId(8), 200)
        .controller(NodeId(11), 200)
        .all_pairs_flows()
        .build()
        .expect("grid network builds")
}

/// Rendered metric tables for k = 1..=3 at `jobs`, with or without an
/// event log attached.
fn recorded_outputs(net: &SdWan, jobs: usize, events: Option<Arc<EventLog>>) -> String {
    let opts = EvalOptions {
        jobs,
        skip_optimal: true,
        events,
        ..EvalOptions::default()
    };
    let engine = SweepEngine::new(net, opts.clone());
    let mut out = String::new();
    for k in 1..=3 {
        out.push_str(&metrics_report(
            &engine.sweep(k),
            k,
            "telemetry",
            true,
            &opts,
        ));
    }
    out
}

/// Parses the JSONL stream and checks its internal consistency; returns
/// the number of `case_finish` lines.
fn check_event_stream(path: &Path, jobs: usize) -> usize {
    let text = std::fs::read_to_string(path).expect("event log written");
    let mut sweeps = 0;
    let mut finishes = 0;
    let mut last_done = 0;
    for line in text.lines() {
        pm_obs::json::validate(line).expect(line);
        let field = |key: &str| -> Option<u64> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            line[at..].split([',', '}']).next()?.trim().parse().ok()
        };
        if line.contains("\"event\": \"sweep_start\"") {
            sweeps += 1;
            last_done = 0;
        } else if line.contains("\"event\": \"case_finish\"") {
            finishes += 1;
            let done = field("done").expect("done field");
            assert_eq!(done, last_done + 1, "done counts up within a sweep: {line}");
            last_done = done;
            assert!(done <= field("total").expect("total field"), "{line}");
            let worker = field("worker").expect("worker field") as usize;
            assert!(worker < jobs.max(1), "worker id in range: {line}");
        }
    }
    assert_eq!(sweeps, 3, "one sweep_start per k");
    assert_eq!(
        text.matches("\"event\": \"sweep_finish\"").count(),
        3,
        "one sweep_finish per k"
    );
    finishes
}

#[test]
fn event_log_never_changes_sweep_results() {
    let net = small_net();
    let dir = std::env::temp_dir().join(format!("pm-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // 3×4 grid, 4 controllers: C(4,1)+C(4,2)+C(4,3) = 14 failure cases.
    let plain_serial = recorded_outputs(&net, 1, None);
    let plain_parallel = recorded_outputs(&net, 8, None);
    assert_eq!(plain_serial, plain_parallel);

    for jobs in [1usize, 8] {
        let path = dir.join(format!("events-{jobs}.jsonl"));
        let log = Arc::new(EventLog::create(Some(&path), false).expect("log opens"));
        let streamed = recorded_outputs(&net, jobs, Some(Arc::clone(&log)));
        log.close().expect("log flushes");
        assert_eq!(
            plain_serial, streamed,
            "jobs={jobs}: event streaming changed results"
        );
        assert_eq!(check_event_stream(&path, jobs), 14);
    }

    std::fs::remove_dir_all(&dir).ok();

    // Prometheus coverage of a real sweep, in the same test because the
    // recorder (like the counters it feeds) is process-global: enable it
    // only after the on/off comparison above is done.
    pm_obs::enable();
    pm_obs::reset();
    recorded_outputs(&net, 2, None);
    let prom = pm_obs::prometheus_text();
    assert!(
        prom.contains("# TYPE pm_sweep_cases_total counter"),
        "{prom}"
    );
    assert!(prom.contains("pm_sweep_cases_total 14"), "{prom}");
    assert!(prom.contains("# TYPE pm_sweep_queue_wait_ns histogram"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("pm_span_count{span=\"sweep.case\"} 14"));
}
