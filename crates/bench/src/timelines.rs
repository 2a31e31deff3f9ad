//! Sweeps over seeded failure timelines, driven by the [`SweepEngine`].
//!
//! A [`pm_simctl::TimelineSpace`] indexes event schedules by integer id
//! exactly like [`crate::ScenarioSpace`] indexes failure subsets by colex
//! rank, so the whole selection machinery composes unchanged:
//! [`TimelineSelection`] applies `--max-scenarios` Floyd sampling and
//! `--shard i/m` contiguous slicing over timeline ids, and
//! [`SweepEngine::sweep_timelines`] streams the selected ids through the
//! batch-claiming worker pool ([`crate::par::stream_indexed`]). Replay
//! results merge in id order, so output is byte-identical across job
//! counts and m shards concatenated in shard order reassemble the
//! unsharded run.

use crate::harness::EvalOptions;
use crate::par::{stream_indexed, SweepEngine};
use crate::scenario_space::{floyd_sample, slice_range};
use pm_simctl::{TimelineParams, TimelineReport, TimelineSpace};
use std::fmt::Write as _;
use std::ops::Range;

/// Which timelines of a [`TimelineSpace`] a sweep executes: either the
/// exhaustive id range or a seeded sample of it, in ascending id order
/// either way — the timeline analogue of [`crate::ScenarioSelection`].
#[derive(Debug, Clone)]
pub struct TimelineSelection {
    count: u64,
    /// Sampled ids in ascending order; `None` means exhaustive.
    ids: Option<Vec<u64>>,
}

impl TimelineSelection {
    /// Selects every timeline of a space with `count` ids.
    pub fn exhaustive(count: u64) -> Self {
        TimelineSelection { count, ids: None }
    }

    /// Selects at most `max` timeline ids, drawn without replacement by
    /// the same seeded Floyd sampler the scenario selection uses. Budgets
    /// covering the space fall back to the exhaustive range.
    pub fn sampled(count: u64, max: u64, seed: u64) -> Self {
        if max >= count {
            return TimelineSelection::exhaustive(count);
        }
        TimelineSelection {
            count,
            ids: Some(floyd_sample(count, max, seed)),
        }
    }

    /// `true` when this is a strict subsample of the space.
    pub fn is_sampled(&self) -> bool {
        self.ids.is_some()
    }

    /// How many timelines the selection contains.
    pub fn len(&self) -> u64 {
        match &self.ids {
            Some(ids) => ids.len() as u64,
            None => self.count,
        }
    }

    /// `true` when the selection contains no timelines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The timeline id executed at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn id_at(&self, pos: u64) -> u64 {
        match &self.ids {
            Some(ids) => ids[usize::try_from(pos).expect("position fits usize")],
            None => {
                assert!(pos < self.count, "position {pos} out of range");
                pos
            }
        }
    }

    /// The position range shard `i` of `m` executes (1-based, the
    /// `--shard i/m` convention); `None` means the whole selection. Same
    /// contiguous-partition contract as
    /// [`crate::ScenarioSelection::shard_range`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in `1..=m` or `m == 0`.
    pub fn shard_range(&self, shard: Option<(usize, usize)>) -> Range<u64> {
        slice_range(self.len(), shard)
    }
}

impl SweepEngine<'_> {
    /// The timeline space a `--timelines count` sweep of this engine
    /// replays: `count` seeded schedules over this network's controllers
    /// and flows, derived from [`EvalOptions::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the network has fewer than two controllers.
    pub fn timeline_space(&self, count: u64, params: TimelineParams) -> TimelineSpace {
        TimelineSpace::new(
            self.network().controllers().len(),
            self.network().flows().len(),
            self.options().seed,
            count,
            params,
        )
    }

    /// The timeline selection a sweep over `space` executes: the full id
    /// range, cut down to [`EvalOptions::max_scenarios`] by seeded
    /// sampling when set.
    pub fn timeline_selection(&self, space: &TimelineSpace) -> TimelineSelection {
        match self.options().max_scenarios {
            Some(max) => TimelineSelection::sampled(space.count(), max, self.options().seed),
            None => TimelineSelection::exhaustive(space.count()),
        }
    }

    /// Replays the timelines of `sel` this engine's shard covers,
    /// streaming ids through the worker pool in position order against
    /// the engine's shared read-only [`pm_sdwan::NetCache`].
    ///
    /// Reports merge in position order — byte-identical across job
    /// counts, and m shards concatenated in shard order byte-identical to
    /// the unsharded run. The `sim.sweep.live_peak` counter records the
    /// in-flight high-water mark (bounded by `jobs × batch`).
    ///
    /// # Panics
    ///
    /// Panics if a generated timeline fails to replay — generation
    /// guarantees well-formed failure sets, so this indicates a bug.
    pub fn sweep_timelines(
        &self,
        space: &TimelineSpace,
        sel: &TimelineSelection,
    ) -> Vec<TimelineReport> {
        if pm_obs::enabled() {
            pm_obs::count_max("sim.sweep.space_size", space.count());
            pm_obs::count_max("sim.sweep.selected", sel.len());
            if sel.is_sampled() {
                pm_obs::count("sim.sweep.sampled_sweeps", 1);
            }
        }
        let range = sel.shard_range(self.options().shard);
        let (net, cache) = (self.network(), self.cache());
        stream_indexed(
            range,
            self.options().jobs,
            self.options().batch,
            "sim.sweep",
            |pos, _: &mut ()| {
                let id = sel.id_at(pos);
                space
                    .generate(id)
                    .replay(net, cache)
                    .expect("generated timelines always replay")
            },
        )
    }
}

/// Column headers of the deterministic per-timeline output table —
/// aggregate replay outcomes only, no wall-clock values, so shard
/// outputs concatenate byte-identically.
pub const TIMELINE_CASE_HEADERS: [&str; 12] = [
    "timeline",
    "events",
    "solves",
    "failures",
    "cascades",
    "partitions",
    "recoveries",
    "churns",
    "peak_failed",
    "fully_recovered",
    "baseline_restored",
    "pm_worst_recovered_ppm",
];

/// One deterministic output row per replayed timeline, matching
/// [`TIMELINE_CASE_HEADERS`].
pub fn timeline_rows(reports: &[TimelineReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                r.events.to_string(),
                r.solves.to_string(),
                r.failures.to_string(),
                r.cascades.to_string(),
                r.partitions.to_string(),
                (r.recoveries + r.heals).to_string(),
                r.churns.to_string(),
                r.peak_failed.to_string(),
                (r.fully_recovered as u8).to_string(),
                (r.baseline_restored as u8).to_string(),
                r.pm_worst_recovered_ppm.to_string(),
            ]
        })
        .collect()
}

/// Everything `BENCH_timeline.json` reports besides the per-run timing:
/// the topology, the timeline space, and the selection accounting.
#[derive(Debug, Clone)]
pub struct TimelineRunInfo {
    /// Switch count of the topology.
    pub nodes: usize,
    /// Edge count of the topology.
    pub edges: usize,
    /// Seed the topology, the timeline space and the sample derive from.
    pub seed: u64,
    /// Number of controllers.
    pub controllers: usize,
    /// Number of routed flows.
    pub flows: usize,
    /// Timeline-space size (`--timelines`).
    pub space_size: u64,
    /// Timelines selected after `--max-scenarios` (equals `space_size`
    /// when exhaustive).
    pub selected: u64,
    /// Whether the selection is a seeded sample rather than exhaustive.
    pub sampled: bool,
    /// The `--shard i/m` slice this run executed, if any.
    pub shard: Option<(usize, usize)>,
    /// Timelines actually replayed (the shard's slice of the selection).
    pub timelines_run: usize,
    /// Peak in-flight timelines (`sim.sweep.live_peak`).
    pub live_peak: u64,
    /// The contract bound on `live_peak`: `jobs × batch`.
    pub live_bound: u64,
}

/// Renders `BENCH_timeline.json` (schema version 1): the
/// [`TimelineRunInfo`] header, aggregate event-kind totals over the
/// replayed timelines, the wall-clock of the whole sweep, and — when a
/// [`pm_obs`] snapshot with spans is supplied — the `phase_breakdown`
/// section the other BENCH artifacts carry.
pub fn bench_timeline_json(
    info: &TimelineRunInfo,
    jobs: usize,
    sweep_ms: f64,
    reports: &[TimelineReport],
    phases: Option<&pm_obs::Snapshot>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"figure\": \"timeline_sweep\",");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    out.push_str("  \"topology\": {");
    let _ = write!(
        out,
        "\"model\": \"waxman\", \"nodes\": {}, \"edges\": {}, \"seed\": {}, \
         \"controllers\": {}, \"flows\": {}",
        info.nodes, info.edges, info.seed, info.controllers, info.flows
    );
    out.push_str("},\n");
    out.push_str("  \"timeline_space\": {");
    let shard = match info.shard {
        Some((i, m)) => format!("\"{i}/{m}\""),
        None => "null".into(),
    };
    let _ = write!(
        out,
        "\"size\": {}, \"selected\": {}, \"sampled\": {}, \"shard\": {shard}, \
         \"timelines_run\": {}, \"live_peak\": {}, \"live_bound\": {}",
        info.space_size,
        info.selected,
        info.sampled,
        info.timelines_run,
        info.live_peak,
        info.live_bound
    );
    out.push_str("},\n");
    let sum =
        |f: fn(&TimelineReport) -> usize| -> u64 { reports.iter().map(|r| f(r) as u64).sum() };
    let recovered = reports.iter().filter(|r| r.fully_recovered).count();
    let restored = reports.iter().filter(|r| r.baseline_restored).count();
    let worst_ppm = reports
        .iter()
        .map(|r| r.pm_worst_recovered_ppm)
        .min()
        .unwrap_or(1_000_000);
    out.push_str("  \"events\": {");
    let _ = write!(
        out,
        "\"total\": {}, \"solves\": {}, \"failures\": {}, \"cascades\": {}, \
         \"partitions\": {}, \"recoveries\": {}, \"heals\": {}, \"churns\": {}",
        sum(|r| r.events),
        sum(|r| r.solves),
        sum(|r| r.failures),
        sum(|r| r.cascades),
        sum(|r| r.partitions),
        sum(|r| r.recoveries),
        sum(|r| r.heals),
        sum(|r| r.churns)
    );
    out.push_str("},\n");
    out.push_str("  \"outcomes\": {");
    let _ = write!(
        out,
        "\"fully_recovered\": {recovered}, \"baseline_restored\": {restored}, \
         \"pm_worst_recovered_ppm\": {worst_ppm}"
    );
    out.push_str("},\n");
    if let Some(snap) = phases {
        if !snap.spans.is_empty() {
            out.push_str("  \"phase_breakdown\": {\n");
            for (i, s) in snap.spans.iter().enumerate() {
                let _ = write!(
                    out,
                    "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                    s.name, s.count, s.total_ns, s.max_ns
                );
                out.push_str(if i + 1 < snap.spans.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  },\n");
        }
    }
    let _ = writeln!(out, "  \"sweep_ms\": {sweep_ms:.3}");
    out.push_str("}\n");
    out
}

/// Writes [`bench_timeline_json`] to `BENCH_timeline.json` in the CSV
/// directory (or the working directory when `--csv` was not given),
/// folding in the recorder's span aggregates when it is on.
pub fn write_bench_timeline_json(
    opts: &EvalOptions,
    info: &TimelineRunInfo,
    sweep_ms: f64,
    reports: &[TimelineReport],
) {
    let snap = pm_obs::enabled().then(pm_obs::snapshot);
    let body = bench_timeline_json(info, opts.jobs, sweep_ms, reports, snap.as_ref());
    let dir = opts
        .csv_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("BENCH_timeline.json"), body))
    {
        eprintln!("warning: could not write BENCH_timeline.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    #[test]
    fn selection_samples_shards_and_degrades_like_scenarios() {
        let a = TimelineSelection::sampled(500, 64, 7);
        let b = TimelineSelection::sampled(500, 64, 7);
        let c = TimelineSelection::sampled(500, 64, 8);
        assert!(a.is_sampled());
        assert_eq!(a.len(), 64);
        let ids = |s: &TimelineSelection| (0..s.len()).map(|p| s.id_at(p)).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "same seed, same sample");
        assert_ne!(ids(&a), ids(&c), "different seed, different sample");
        assert!(ids(&a).windows(2).all(|w| w[0] < w[1]), "sorted, distinct");

        let full = TimelineSelection::sampled(500, 500, 7);
        assert!(!full.is_sampled(), "covering budget stays exhaustive");
        assert_eq!(full.len(), 500);

        for m in [1usize, 2, 3, 7] {
            let mut covered = Vec::new();
            for i in 1..=m {
                covered.extend(a.shard_range(Some((i, m))));
            }
            assert_eq!(covered, (0..a.len()).collect::<Vec<u64>>(), "m = {m}");
        }
    }

    #[test]
    fn timeline_sweep_is_schedule_independent_and_shardable() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = |jobs: usize, shard: Option<(usize, usize)>| EvalOptions {
            skip_optimal: true,
            jobs,
            batch: 2,
            shard,
            ..Default::default()
        };
        let reports_with = |jobs: usize, shard| {
            let engine = SweepEngine::new(&net, opts(jobs, shard));
            let space = engine.timeline_space(6, TimelineParams::default());
            let sel = engine.timeline_selection(&space);
            engine.sweep_timelines(&space, &sel)
        };
        let serial = reports_with(1, None);
        let parallel = reports_with(8, None);
        assert_eq!(serial.len(), 6);
        assert_eq!(serial, parallel, "jobs=1 and jobs=8 must agree exactly");

        let mut union = Vec::new();
        for i in 1..=3 {
            union.extend(reports_with(4, Some((i, 3))));
        }
        assert_eq!(union, serial, "3 shards must reassemble the sweep");
    }

    #[test]
    fn rows_match_headers_and_are_deterministic() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let engine = SweepEngine::new(
            &net,
            EvalOptions {
                skip_optimal: true,
                jobs: 2,
                ..Default::default()
            },
        );
        let space = engine.timeline_space(3, TimelineParams::default());
        let sel = engine.timeline_selection(&space);
        let reports = engine.sweep_timelines(&space, &sel);
        let rows = timeline_rows(&reports);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.len(), TIMELINE_CASE_HEADERS.len());
        }
        assert_eq!(rows, timeline_rows(&reports));
    }

    #[test]
    fn bench_timeline_json_schema_is_pinned() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let engine = SweepEngine::new(
            &net,
            EvalOptions {
                skip_optimal: true,
                jobs: 1,
                ..Default::default()
            },
        );
        let space = engine.timeline_space(2, TimelineParams::default());
        let sel = engine.timeline_selection(&space);
        let reports = engine.sweep_timelines(&space, &sel);
        let info = TimelineRunInfo {
            nodes: net.switch_count(),
            edges: 0,
            seed: 42,
            controllers: net.controllers().len(),
            flows: net.flows().len(),
            space_size: 2,
            selected: 2,
            sampled: false,
            shard: None,
            timelines_run: reports.len(),
            live_peak: 1,
            live_bound: 32,
        };
        let json = bench_timeline_json(&info, 1, 12.5, &reports, None);
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n"));
        assert!(json.contains("  \"figure\": \"timeline_sweep\",\n"));
        assert!(json.contains("\"timelines_run\": 2"));
        assert!(json.contains("\"fully_recovered\": "));
        assert!(json.contains("  \"sweep_ms\": 12.500\n"));
        assert!(json.trim_end().ends_with('}'));
    }
}
