//! Deterministic parallel failure sweeps.
//!
//! Every parallel job in this crate — the Waxman rows of the scale
//! drills' set-up ([`crate::wan::build_wan`]), the failure sweeps, the
//! `pmd` plan-store build, the timeline sweeps and the extra studies —
//! runs through one worker pool, [`stream_indexed`] (`--jobs N`, default:
//! all cores). Its workers claim contiguous batches of a position range and
//! carry one caller-defined state across every batch they claim (a sweep
//! carries its rolling scenario and algorithm workspaces); results merge
//! in position order regardless of which worker finishes first.
//!
//! [`SweepEngine`] feeds it the positions of a scenario sequence —
//! ascending colexicographic rank (see [`crate::ScenarioSpace`]) — and
//! materializes each failure set on demand with
//! [`crate::ScenarioSpace::unrank`]. `--shard i/m` restricts a run to one
//! contiguous slice of the sequence and `--max-scenarios` subsamples it;
//! both compose with any job count without changing a single result byte.
//!
//! When the [`pm_obs`] recorder is on, the pool records one counter
//! block under the caller's prefix (`topo` for the Waxman rows, `sweep`
//! for scenario sweeps and the store build, `sim.sweep` for timelines,
//! the binary's name for the extra studies): `{prefix}.live_peak`
//! (high-water mark of in-flight positions), the
//! `{prefix}.queue_wait_ns` histogram, `{prefix}.worker.{w}.busy_ns` and
//! `{prefix}.worker.{w}.items`; its threads are labelled
//! `{prefix}-worker-{w}`.
//!
//! Each case reuses the engine's [`NetCache`] (shortest-path trees,
//! path counts, programmability, controller loads, delay orders), so a
//! case costs only the algorithms themselves, each run through
//! [`pm_core::solve`] with the worker's carried [`PmWorkspace`]. Metric
//! output is therefore byte-identical between `--jobs 1` and any other
//! thread count; only the wall-clock statistics vary run to run.

use crate::harness::{case_label, run_algorithms, CaseResult, EvalOptions};
use crate::scenario_space::{ScenarioSelection, ScenarioSpace};
use pm_core::{FmssmInstance, Pm, PmWorkspace};
use pm_sdwan::{
    ControllerId, FailureScenario, NetCache, PlanMetrics, Programmability, RecoveryPlan, SdWan,
    SdwanError,
};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    static WORKER_ID: Cell<usize> = const { Cell::new(0) };
}

/// The zero-based id of the [`stream_indexed`] worker running on this
/// thread — 0 on the calling thread (serial path) and any thread outside
/// a sweep. The event log ([`crate::events`]) stamps it on `case_start` /
/// `case_finish` lines.
pub fn current_worker() -> usize {
    WORKER_ID.with(Cell::get)
}

/// Streams the integer positions of `range` through the worker pool and
/// returns `f(position, state)` results in **position order**, whatever
/// the completion order. Workers claim contiguous batches of `batch`
/// positions through an atomic counter, so at most `jobs × batch`
/// positions are in flight at once and output is independent of the job
/// count. Each worker creates one `S` and carries it across every batch
/// it claims; with `jobs <= 1` (or at most one position) everything runs
/// on the calling thread with one `S` threaded through the whole range.
/// Use `batch = 1` for a few heavy items, so workers claim one at a time.
///
/// When the [`pm_obs`] recorder is on, the pool records the counter block
/// of the [module docs](self) under `prefix`; the serial path records
/// only `{prefix}.live_peak`.
///
/// # Panics
///
/// Panics if `f` panics on any position (re-raised with its payload when
/// the workers are joined).
pub fn stream_indexed<S, R, F>(
    range: Range<u64>,
    jobs: usize,
    batch: usize,
    prefix: &str,
    f: F,
) -> Vec<R>
where
    S: Default,
    R: Send,
    F: Fn(u64, &mut S) -> R + Sync,
{
    let total = usize::try_from(range.end.saturating_sub(range.start))
        .expect("streamed result set fits memory");
    let obs = pm_obs::enabled();
    let jobs = jobs.clamp(1, total.max(1));
    let batch = batch.max(1);
    if jobs <= 1 {
        let mut state = S::default();
        let mut out = Vec::with_capacity(total);
        for pos in range {
            if obs {
                pm_obs::count_max(format!("{prefix}.live_peak"), 1);
            }
            out.push(f(pos, &mut state));
        }
        return out;
    }
    let next = AtomicU64::new(0);
    let live = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for w in 0..jobs {
            let (next, live, slots, f) = (&next, &live, &slots, &f);
            let range = range.clone();
            workers.push(scope.spawn(move || {
                WORKER_ID.with(|id| id.set(w));
                if obs {
                    pm_obs::set_thread_label(format!("{prefix}-worker-{w}"));
                }
                let mut state = S::default();
                // "Queue wait" is the gap between batches on this worker:
                // the claim plus the result-slot locks of the previous
                // batch. It bounds the dispatch overhead the pool adds on
                // top of the per-position work itself.
                let mut idle_since = obs.then(std::time::Instant::now);
                loop {
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    let start = range.start + claim * batch as u64;
                    if start >= range.end {
                        break;
                    }
                    let end = (start + batch as u64).min(range.end);
                    let claimed = (end - start) as usize;
                    if obs {
                        let now = live.fetch_add(claimed, Ordering::Relaxed) + claimed;
                        pm_obs::count_max(format!("{prefix}.live_peak"), now as u64);
                    }
                    if let Some(t0) = idle_since {
                        pm_obs::observe(
                            format!("{prefix}.queue_wait_ns"),
                            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    for pos in start..end {
                        let busy_t0 = obs.then(std::time::Instant::now);
                        let r = f(pos, &mut state);
                        if let Some(t0) = busy_t0 {
                            pm_obs::count(
                                format!("{prefix}.worker.{w}.busy_ns"),
                                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            );
                            pm_obs::count(format!("{prefix}.worker.{w}.items"), 1);
                        }
                        let slot = (pos - range.start) as usize;
                        slots.lock().expect("no poisoned worker")[slot] = Some(r);
                    }
                    if obs {
                        live.fetch_sub(claimed, Ordering::Relaxed);
                    }
                    idle_since = obs.then(std::time::Instant::now);
                }
            }));
        }
        // `scope` alone returns once every worker's closure has finished,
        // which can be before its thread has exited and handed its malloc
        // arena back; a pool started right after then opens new arenas.
        // Back-to-back pools (the Waxman rows' two passes, a sweep and its
        // cold re-solves) grew a 1k-switch sweep's peak RSS from ~66 MiB to
        // 90–118 MiB that way. Joining waits for the exits.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Runs failure sweeps against one network, in parallel, with every
/// per-network quantity precomputed once.
///
/// # Example
///
/// ```
/// use pm_bench::{EvalOptions, SweepEngine};
/// use pm_sdwan::SdWanBuilder;
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let opts = EvalOptions { skip_optimal: true, ..Default::default() };
/// let engine = SweepEngine::new(&net, opts);
/// let cases = engine.sweep(1); // all 6 single-failure cases, in order
/// assert_eq!(cases.len(), 6);
/// assert_eq!(cases[0].label, "(2)");
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug)]
pub struct SweepEngine<'net> {
    net: &'net SdWan,
    cache: NetCache,
    opts: EvalOptions,
}

/// State one sweep worker carries from case to case on the incremental
/// path: the previous scenario (patched in place by
/// [`pm_sdwan::FailureScenario::apply_delta`] chains) and PM's reusable
/// buffers. Dropping it between cases reproduces the cold path bit for
/// bit — it holds no decisions, only already-computed state.
#[derive(Debug, Default)]
struct DeltaState<'net> {
    scenario: Option<FailureScenario<'net>>,
    ws: PmWorkspace,
}

impl<'net> SweepEngine<'net> {
    /// Precomputes the [`NetCache`] of `net` and readies a pool of
    /// `opts.jobs` workers (created per sweep; no threads idle between
    /// calls).
    pub fn new(net: &'net SdWan, opts: EvalOptions) -> Self {
        let cache = NetCache::build(net);
        if opts.eager_warm {
            cache.topo().warm();
        }
        SweepEngine { net, cache, opts }
    }

    /// The network under evaluation.
    pub fn network(&self) -> &'net SdWan {
        self.net
    }

    /// The per-network cache shared by all cases.
    pub fn cache(&self) -> &NetCache {
        &self.cache
    }

    /// Consumes the engine and hands back its cache, for a caller that
    /// keeps serving the network after the sweep.
    pub fn into_cache(self) -> NetCache {
        self.cache
    }

    /// The cached programmability table.
    pub fn programmability(&self) -> &Programmability {
        self.cache.programmability()
    }

    /// The evaluation options this engine runs with.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Builds the failure scenario for `failed` from cached state.
    ///
    /// # Errors
    ///
    /// As for [`SdWan::fail`].
    pub fn scenario(&self, failed: &[ControllerId]) -> Result<FailureScenario<'net>, SdwanError> {
        self.net.fail_cached(failed, &self.cache)
    }

    /// Runs all algorithms on one failure case.
    ///
    /// # Panics
    ///
    /// Panics if the case is invalid or an algorithm produces an invalid
    /// plan — both indicate bugs, not data errors.
    pub fn run_case(&self, failed: &[ControllerId]) -> CaseResult {
        self.run_case_in(failed, &mut DeltaState::default())
    }

    /// [`SweepEngine::run_case`] against a worker's carried state: when
    /// `state` holds the previous case's scenario (and
    /// [`EvalOptions::incremental`] is on), the new failure set is reached
    /// by a chain of single `(revived, failed)` swaps patched in place —
    /// the dominant cost of a heuristic-only case — instead of a rebuild.
    /// Results are byte-identical to the cold path: every delta operation
    /// reproduces the fresh construction exactly.
    fn run_case_in(&self, failed: &[ControllerId], state: &mut DeltaState<'net>) -> CaseResult {
        let label = case_label(self.net, failed);
        let case_t0 = pm_obs::enabled().then(std::time::Instant::now);
        let _span = pm_obs::span_labeled("sweep.case", label.clone());
        self.advance_scenario(failed, &mut state.scenario);
        let DeltaState { scenario, ws } = state;
        let scenario = scenario.as_ref().expect("scenario just advanced");
        let inst_span = pm_obs::span("sweep.instance");
        let inst = FmssmInstance::with_cache(scenario, self.cache.programmability(), &self.cache);
        drop(inst_span);
        let runs = run_algorithms(&inst, &self.opts, ws);
        if pm_obs::enabled() {
            pm_obs::count("sweep.cases", 1);
        }
        // Per-case wall time as a histogram, so a live scrape can derive a
        // running p95 (`pmctl obs top`) — the span aggregate only exposes
        // totals and the max.
        if let Some(t0) = case_t0 {
            pm_obs::observe(
                "sweep.case_ns",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        CaseResult {
            failed: failed.to_vec(),
            label,
            runs,
        }
    }

    /// Solves one failure case with PM alone and returns the plan itself
    /// — the lookup side of the `pmd` plan store compares against exactly
    /// this. Byte-identical to the PM run inside
    /// [`SweepEngine::run_case`]: same cached instance construction, same
    /// [`pm_core::solve`] call on the warm workspace.
    ///
    /// # Panics
    ///
    /// Panics if the case is invalid or PM produces an invalid plan —
    /// both indicate bugs, not data errors.
    pub fn solve_plan(&self, failed: &[ControllerId]) -> SolvedPlan {
        self.solve_plan_in(failed, &mut DeltaState::default())
    }

    /// [`SweepEngine::solve_plan`] against a worker's carried delta state,
    /// mirroring [`SweepEngine::run_case`]'s `run_case_in`.
    fn solve_plan_in(&self, failed: &[ControllerId], state: &mut DeltaState<'net>) -> SolvedPlan {
        let label = case_label(self.net, failed);
        let _span = pm_obs::span_labeled("store.solve", label.clone());
        self.advance_scenario(failed, &mut state.scenario);
        let DeltaState { scenario, ws } = state;
        let scenario = scenario.as_ref().expect("scenario just advanced");
        let inst = FmssmInstance::with_cache(scenario, self.cache.programmability(), &self.cache);
        let solved = pm_core::solve(&Pm::new(), &inst, ws).expect("PM plans are valid");
        SolvedPlan {
            failed: failed.to_vec(),
            label,
            plan: solved.plan,
            metrics: solved.metrics,
            elapsed: solved.elapsed,
        }
    }

    /// Solves every scenario of `sel` with PM, streaming positions
    /// through the worker pool on the delta/warm-start path — the `pmd`
    /// plan-store build. The whole selection is solved (shards do not
    /// apply: a plan store answers any rank); results come back in
    /// ascending position order, byte-identical at any job count.
    pub fn solve_selection(&self, sel: &ScenarioSelection) -> Vec<SolvedPlan> {
        self.stream_cases(sel, 0..sel.len(), |failed, state| {
            self.solve_plan_in(failed, state)
        })
    }

    /// Leaves the scenario for `failed` in `slot`, patching the previous
    /// scenario in place when one is carried and the incremental path is
    /// on. Consecutive colex positions usually differ in one controller;
    /// across block boundaries (or sampled selections) the symmetric
    /// difference is larger and is applied as a chain of single swaps,
    /// each a valid intermediate scenario.
    fn advance_scenario(&self, failed: &[ControllerId], slot: &mut Option<FailureScenario<'net>>) {
        if self.opts.incremental {
            if let Some(prev) = slot.as_mut() {
                if prev.failed_controllers().len() == failed.len() {
                    let outs: Vec<ControllerId> = prev
                        .failed_controllers()
                        .iter()
                        .copied()
                        .filter(|c| !failed.contains(c))
                        .collect();
                    let ins: Vec<ControllerId> = failed
                        .iter()
                        .copied()
                        .filter(|c| !prev.failed_controllers().contains(c))
                        .collect();
                    for (&remove, &add) in outs.iter().zip(&ins) {
                        prev.apply_delta_cached(remove, add, &self.cache)
                            .expect("symmetric-difference swaps are valid");
                    }
                    if pm_obs::enabled() {
                        pm_obs::count("sweep.scenario.delta_cases", 1);
                        pm_obs::count("sweep.scenario.delta_swaps", outs.len() as u64);
                    }
                    return;
                }
            }
        }
        *slot = Some(self.scenario(failed).expect("valid failure case"));
    }

    /// The scenario selection a `f`-failure sweep of this engine executes:
    /// the full colex rank space of f-subsets of the controllers, cut down
    /// to [`EvalOptions::max_scenarios`] by seeded sampling when set.
    pub fn selection(&self, f: usize) -> ScenarioSelection {
        let space = ScenarioSpace::new(self.net.controllers().len(), f);
        match self.opts.max_scenarios {
            Some(max) => ScenarioSelection::sampled(space, max, self.opts.seed),
            None => ScenarioSelection::exhaustive(space),
        }
    }

    /// Runs every `k`-controller-failure case of this engine's
    /// [`SweepEngine::selection`], in ascending colex rank order,
    /// restricted to [`EvalOptions::shard`] when set.
    pub fn sweep(&self, k: usize) -> Vec<CaseResult> {
        let sel = self.selection(k);
        self.sweep_selection(&sel)
    }

    /// Runs the scenarios of `sel` this engine's shard covers, streaming
    /// them through the worker pool in position order.
    ///
    /// Workers claim contiguous batches of [`EvalOptions::batch`]
    /// positions and materialize each failure set on demand, so
    /// at most `jobs × batch` scenario descriptors are live at once —
    /// recorded in the `sweep.live_peak` counter when the
    /// recorder is on. Results merge in position order, making output
    /// independent of the job count, and m shards concatenated in shard
    /// order byte-identical to the unsharded run.
    pub fn sweep_selection(&self, sel: &ScenarioSelection) -> Vec<CaseResult> {
        let range = sel.shard_range(self.opts.shard);
        let total = usize::try_from(range.end - range.start).expect("shard result set fits memory");
        if pm_obs::enabled() {
            pm_obs::count_max("sweep.scenario.space_size", sel.space().count());
            pm_obs::count_max("sweep.scenario.selected", sel.len());
            if sel.is_sampled() {
                pm_obs::count("sweep.scenario.sampled_sweeps", 1);
            }
        }
        if let Some(events) = &self.opts.events {
            events.sweep_start(total, self.opts.jobs.clamp(1, total.max(1)));
        }
        let out = self.stream_cases(sel, range, |failed, state| match &self.opts.events {
            None => self.run_case_in(failed, state),
            Some(events) => {
                let label = case_label(self.net, failed);
                let token = events.case_start(&label);
                let result = self.run_case_in(failed, state);
                events.case_finish(token, &label);
                result
            }
        });
        if let Some(events) = &self.opts.events {
            events.sweep_finish();
        }
        out
    }

    /// Streams the positions of `range` through [`stream_indexed`] under
    /// the `sweep` prefix — the dispatch shared by the sweep
    /// ([`SweepEngine::sweep_selection`]) and the PM-only store build
    /// ([`SweepEngine::solve_selection`]). Each worker carries a scenario
    /// buffer and a [`DeltaState`] across every block it claims, so the
    /// first case of a block deltas from the last case of the previous
    /// one; the state is reset per case when the incremental path is off.
    fn stream_cases<R, F>(&self, sel: &ScenarioSelection, range: Range<u64>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&[ControllerId], &mut DeltaState<'net>) -> R + Sync,
    {
        stream_indexed(
            range,
            self.opts.jobs,
            self.opts.batch,
            "sweep",
            |pos, (buf, state): &mut (Vec<ControllerId>, DeltaState<'net>)| {
                if !self.opts.incremental {
                    // Cold recompute: nothing survives between cases.
                    *state = DeltaState::default();
                }
                sel.scenario_at_into(pos, buf);
                f(buf, state)
            },
        )
    }
}

/// One PM-solved failure case: the plan itself plus its metrics — the
/// unit [`crate::PlanStore`] holds and `pmd` serves.
#[derive(Debug, Clone)]
pub struct SolvedPlan {
    /// The failed controllers, ascending.
    pub failed: Vec<ControllerId>,
    /// The paper-style case label, e.g. `(13,20)`.
    pub label: String,
    /// PM's recovery plan.
    pub plan: RecoveryPlan,
    /// All evaluation metrics of the plan.
    pub metrics: PlanMetrics,
    /// Wall-clock time of the recovery computation.
    pub elapsed: Duration,
}

/// Wall-clock statistics of one algorithm across a sweep's cases.
#[derive(Debug, Clone)]
pub struct TimingStats {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Number of cases the algorithm ran in.
    pub cases: usize,
    /// Mean per-case computation time.
    pub mean: Duration,
    /// 95th-percentile per-case computation time (nearest-rank).
    pub p95: Duration,
    /// Worst per-case computation time.
    pub max: Duration,
}

/// Per-algorithm timing statistics over a list of cases, in the
/// algorithms' first-seen order.
pub fn timing_stats(cases: &[CaseResult]) -> Vec<TimingStats> {
    let mut order: Vec<&'static str> = Vec::new();
    for case in cases {
        for run in &case.runs {
            if !order.contains(&run.name) {
                order.push(run.name);
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let mut times: Vec<Duration> = cases
                .iter()
                .filter_map(|c| c.run(name))
                .map(|r| r.elapsed)
                .collect();
            times.sort();
            let n = times.len();
            let total: Duration = times.iter().sum();
            // Nearest-rank p95: the ceil(0.95 n)-th smallest value.
            let rank = (n * 95).div_ceil(100).max(1);
            TimingStats {
                algorithm: name,
                cases: n,
                mean: total / n as u32,
                p95: times[rank - 1],
                max: *times.last().expect("at least one case"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    #[test]
    fn stream_indexed_matches_serial_and_preserves_position_order() {
        // Uneven per-position cost so completion order differs from
        // position order.
        let f = |pos: u64, _: &mut ()| {
            if pos % 5 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            pos * pos
        };
        let serial = stream_indexed(3..40, 1, 4, "test.stream", f);
        let parallel = stream_indexed(3..40, 8, 4, "test.stream", f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], 9);
        assert_eq!(serial.len(), 37);
        assert!(stream_indexed(5..5, 4, 4, "test.stream", |p, _: &mut ()| p).is_empty());
        assert_eq!(
            stream_indexed(5..6, 4, 1, "test.stream", |p, _: &mut ()| p + 1),
            vec![6]
        );

        // A per-worker scratch buffer reused across positions leaves the
        // results job-count independent.
        let stateful = |pos: u64, buf: &mut Vec<u64>| {
            buf.clear();
            buf.extend(0..pos % 7);
            (pos, buf.iter().sum::<u64>())
        };
        for batch in [1, 3] {
            assert_eq!(
                stream_indexed(0..57, 1, batch, "test.stream", stateful),
                stream_indexed(0..57, 8, batch, "test.stream", stateful),
            );
        }
        // A per-worker call counter: the serial path threads one state
        // through the whole range.
        let counts = |jobs| {
            stream_indexed(0..40, jobs, 2, "test.stream", |_, calls: &mut u64| {
                *calls += 1;
                *calls
            })
        };
        assert_eq!(counts(1), (1..=40).collect::<Vec<u64>>());
        // Each worker carries its state across all 20 blocks it may claim:
        // a fresh state (count 1) appears at most once per worker.
        let fresh = counts(2).iter().filter(|&&c| c == 1).count();
        assert!((1..=2).contains(&fresh), "{fresh} fresh states");
    }

    #[test]
    fn engine_matches_serial_harness() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 4,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts.clone());
        let prog = Programmability::compute(&net);
        for case in engine.sweep(1) {
            // Reference: an uncached scenario and a fresh programmability
            // table, so the cache is checked against a from-scratch build.
            let scenario = net.fail(&case.failed).unwrap();
            let inst = FmssmInstance::new(&scenario, &prog);
            let serial = run_algorithms(&inst, &opts, &mut PmWorkspace::default());
            assert_eq!(case.runs.len(), serial.len());
            for (a, b) in case.runs.iter().zip(&serial) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.metrics.per_flow_programmability,
                    b.metrics.per_flow_programmability
                );
                assert_eq!(
                    a.metrics.total_programmability,
                    b.metrics.total_programmability
                );
                assert_eq!(a.metrics.recovered_flows, b.metrics.recovered_flows);
                assert!((a.total_delay - b.total_delay).abs() < 1e-9);
            }
        }
    }

    /// All metric-bearing fields of a case, as a comparable string.
    fn case_fingerprint(c: &CaseResult) -> String {
        let runs: Vec<String> = c
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{}:{}:{}:{}",
                    r.name,
                    r.metrics.total_programmability,
                    r.metrics.recovered_flows,
                    r.metrics.min_programmability
                )
            })
            .collect();
        format!("{}|{}", c.label, runs.join(";"))
    }

    #[test]
    fn streamed_sweep_matches_materialized_cases() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 4,
            batch: 2,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts);
        for k in 1..=3 {
            let streamed = engine.sweep(k);
            // Reference: the same colex sequence, each case run serially
            // on the cold per-case path.
            let sel = engine.selection(k);
            let reference: Vec<CaseResult> = (0..sel.len())
                .map(|p| engine.run_case(&sel.scenario_at(p)))
                .collect();
            assert_eq!(streamed.len(), reference.len());
            for (a, b) in streamed.iter().zip(&reference) {
                assert_eq!(case_fingerprint(a), case_fingerprint(b), "k = {k}");
            }
        }
    }

    #[test]
    fn shard_union_equals_unsharded() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let base = EvalOptions {
            skip_optimal: true,
            jobs: 3,
            batch: 2,
            ..Default::default()
        };
        let full: Vec<String> = SweepEngine::new(&net, base.clone())
            .sweep(2)
            .iter()
            .map(case_fingerprint)
            .collect();
        for m in [1usize, 2, 4] {
            let mut union = Vec::new();
            for i in 1..=m {
                let opts = EvalOptions {
                    shard: Some((i, m)),
                    ..base.clone()
                };
                union.extend(
                    SweepEngine::new(&net, opts)
                        .sweep(2)
                        .iter()
                        .map(case_fingerprint),
                );
            }
            assert_eq!(union, full, "m = {m} shards must reassemble the sweep");
        }
    }

    #[test]
    fn max_scenarios_caps_and_seeds_the_sweep() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = |max: Option<u64>, seed: u64| EvalOptions {
            skip_optimal: true,
            jobs: 2,
            max_scenarios: max,
            seed,
            ..Default::default()
        };
        // C(6, 3) = 20; a budget of 8 samples, a budget of 100 does not.
        let sampled = SweepEngine::new(&net, opts(Some(8), 1)).sweep(3);
        assert_eq!(sampled.len(), 8);
        let again = SweepEngine::new(&net, opts(Some(8), 1)).sweep(3);
        assert_eq!(
            sampled.iter().map(case_fingerprint).collect::<Vec<_>>(),
            again.iter().map(case_fingerprint).collect::<Vec<_>>(),
        );
        let exhaustive = SweepEngine::new(&net, opts(Some(100), 1)).sweep(3);
        assert_eq!(exhaustive.len(), 20, "oversized budget stays exhaustive");
    }

    #[test]
    fn live_scenario_peak_stays_within_jobs_times_batch() {
        // The recorder is process-global; this is the only pm-bench unit
        // test that enables it, so the counters below are all ours.
        pm_obs::enable();
        pm_obs::reset();
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 2,
            batch: 3,
            ..Default::default()
        };
        SweepEngine::new(&net, opts).sweep(2);
        let snap = pm_obs::snapshot();
        let peak = snap
            .counters
            .iter()
            .find(|(n, _)| n == "sweep.live_peak")
            .map(|&(_, v)| v)
            .expect("live peak recorded");
        assert!(peak >= 1, "peak observed");
        assert!(peak <= 2 * 3, "peak {peak} exceeds jobs * batch");
        let space = snap
            .counters
            .iter()
            .find(|(n, _)| n == "sweep.scenario.space_size")
            .map(|&(_, v)| v);
        assert_eq!(space, Some(15), "C(6,2) recorded");
    }

    #[test]
    fn timing_stats_shape() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 2,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts);
        let cases = engine.sweep(1);
        let stats = timing_stats(&cases);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].algorithm, "RetroFlow");
        for s in &stats {
            assert_eq!(s.cases, cases.len());
            assert!(s.mean <= s.max);
            assert!(s.p95 <= s.max);
        }
    }
}
