//! Bounded-variable two-phase revised primal simplex.
//!
//! Solves `max c·x  s.t.  A x {≤,=,≥} b,  l ≤ x ≤ u`. The constraint matrix
//! is stored once as sparse columns ([`LpContext`]); each solve maintains a
//! dense basis inverse `B⁻¹` updated per pivot (product form) and rebuilt
//! from the basis columns every `REFACTOR_PERIOD` pivots for numerical
//! hygiene. Pricing works on reduced costs `c_j − y·A_j` with `y = c_B·B⁻¹`,
//! so an iteration costs `O(m² + nnz)` instead of the dense tableau's
//! `O(m · ncols)` — the win grows with the column count, which dominates in
//! FMSSM models (one binary per switch×controller pair plus one per entry).
//!
//! Variables are shifted so every lower bound is zero; every row carries an
//! artificial column whose sign tracks the shifted right-hand side, giving
//! the phase-1 starting basis without cloning the matrix per solve (rows are
//! never sign-flipped, so one [`LpContext`] serves every bound combination a
//! branch-and-bound search asks about). Nonbasic variables rest at either
//! bound; the ratio test supports bound flips. Dantzig pricing with a
//! Bland's-rule fallback guards against cycling.
//!
//! Across consecutive solves of one context the final basis is retained:
//! when the next solve's bounds keep that basis primal-feasible, phase 1 is
//! skipped entirely (`milp.basis.reuse_hits`) — the branch-and-bound
//! driver's per-node LPs differ by one variable bound, so most nodes start
//! from a feasible, near-optimal basis.

// Simplex code indexes parallel arrays; iterator-chains obscure it.
#![allow(clippy::needless_range_loop)]

use crate::model::{Model, Sense, Var};

/// Full basis-inverse rebuilds happen every this many pivots.
const REFACTOR_PERIOD: u64 = 100;

/// Options for the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Feasibility/optimality tolerance.
    pub tol: f64,
    /// Hard cap on pivot iterations per phase (scaled guard against
    /// cycling). `0` means "choose automatically from the problem size".
    pub max_iters: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            tol: 1e-7,
            max_iters: 0,
        }
    }
}

/// A solution to the LP relaxation. Values cover structural variables only.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value.
    pub objective: f64,
    /// One value per structural (model) variable.
    pub values: Vec<f64>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The iteration cap was reached before convergence (treat as a failed
    /// solve; callers may retry with looser tolerances).
    IterationLimit,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// # Panics
///
/// Panics if the model has no objective.
pub fn solve_relaxation(model: &Model, opts: &SimplexOptions) -> LpOutcome {
    let n = model.var_count();
    let mut lb = Vec::with_capacity(n);
    let mut ub = Vec::with_capacity(n);
    for i in 0..n {
        let (l, u) = model.bounds(Var(i));
        lb.push(l);
        ub.push(u);
    }
    solve_with_bounds(model, &lb, &ub, opts)
}

/// Solves the LP relaxation with overridden variable bounds (used by branch
/// and bound to tighten integer variables per node). One-shot: builds a
/// fresh [`LpContext`]; repeated solves over the same model should build
/// the context once and call [`LpContext::solve_with_bounds`].
///
/// # Panics
///
/// Panics if the model has no objective or the bound slices have the wrong
/// length.
pub fn solve_with_bounds(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOptions,
) -> LpOutcome {
    LpContext::new(model).solve_with_bounds(lb, ub, opts)
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtBound {
    Lower,
    Upper,
}

/// The final basis of a successful solve, offered to the next solve of the
/// same context as a warm start.
#[derive(Debug, Clone)]
struct WarmBasis {
    /// Basic column per row.
    basis: Vec<usize>,
    /// Resting bound per column (meaningful for nonbasic columns).
    at: Vec<AtBound>,
}

/// The bounds-independent part of an LP: sparse columns of the constraint
/// matrix (structural variables, then one slack/surplus per inequality
/// row, then one artificial per row), the objective, and the last solve's
/// basis for warm-starting. Build once per model, then call
/// [`LpContext::solve_with_bounds`] for each bound combination — the
/// branch-and-bound driver holds one context for its whole node tree.
#[derive(Debug)]
pub struct LpContext {
    /// Structural variable count.
    n_struct: usize,
    /// Row count.
    m: usize,
    /// Columns stored in the CSC arrays: structural + slack/surplus.
    n_fixed: usize,
    /// Total column count (`n_fixed + m` artificials).
    ncols: usize,
    /// CSC storage for columns `0..n_fixed`.
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    /// Slack/surplus column of each row, if the row is an inequality.
    slack_col: Vec<Option<usize>>,
    /// Original (unshifted) right-hand sides.
    rhs0: Vec<f64>,
    /// Row senses.
    senses: Vec<Sense>,
    /// Phase-2 objective per column (structural costs; 0 elsewhere).
    obj: Vec<f64>,
    /// Whether the model declared an objective (asserted at solve time).
    has_objective: bool,
    /// Final basis of the previous successful solve, if any.
    warm: Option<WarmBasis>,
}

impl LpContext {
    /// Extracts the sparse column structure of `model`. The context is
    /// bounds-free: per-node variable bounds arrive at solve time.
    pub fn new(model: &Model) -> Self {
        let n = model.var_count();
        let m = model.constraint_count();

        // Column-count pass, then fill (structural columns first).
        let mut col_entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut rhs0 = Vec::with_capacity(m);
        let mut senses = Vec::with_capacity(m);
        for (i, con) in model.constraints.iter().enumerate() {
            for &(v, c) in &con.terms {
                col_entries[v.0].push((i, c));
            }
            rhs0.push(con.rhs);
            senses.push(con.sense);
        }
        // Duplicate terms on one variable within a row must coalesce, the
        // way the dense row assembly summed them.
        for entries in &mut col_entries {
            entries.sort_by_key(|&(i, _)| i);
            entries.dedup_by(|later, first| {
                if later.0 == first.0 {
                    first.1 += later.1;
                    true
                } else {
                    false
                }
            });
        }

        let mut slack_col = vec![None; m];
        let mut n_fixed = n;
        for i in 0..m {
            match senses[i] {
                Sense::Le | Sense::Ge => {
                    slack_col[i] = Some(n_fixed);
                    n_fixed += 1;
                }
                Sense::Eq => {}
            }
        }
        let ncols = n_fixed + m;

        let mut col_ptr = Vec::with_capacity(n_fixed + 1);
        let mut col_rows = Vec::new();
        let mut col_vals = Vec::new();
        col_ptr.push(0);
        for entries in &col_entries {
            for &(i, c) in entries {
                if c != 0.0 {
                    col_rows.push(i);
                    col_vals.push(c);
                }
            }
            col_ptr.push(col_rows.len());
        }
        for i in 0..m {
            if slack_col[i].is_some() {
                let v = match senses[i] {
                    Sense::Le => 1.0,
                    Sense::Ge => -1.0,
                    Sense::Eq => unreachable!("equality rows have no slack"),
                };
                col_rows.push(i);
                col_vals.push(v);
                col_ptr.push(col_rows.len());
            }
        }

        let mut obj = vec![0.0; ncols];
        for &(v, c) in &model.objective {
            obj[v.0] += c;
        }

        LpContext {
            n_struct: n,
            m,
            n_fixed,
            ncols,
            col_ptr,
            col_rows,
            col_vals,
            slack_col,
            rhs0,
            senses,
            obj,
            has_objective: model.has_objective(),
            warm: None,
        }
    }

    /// Solves under the given variable bounds, warm-starting from the
    /// previous solve's basis when it remains primal-feasible (phase 1 is
    /// then skipped and `milp.basis.reuse_hits` counts the hit).
    ///
    /// # Panics
    ///
    /// Panics if the model had no objective or the bound slices have the
    /// wrong length.
    pub fn solve_with_bounds(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        opts: &SimplexOptions,
    ) -> LpOutcome {
        assert!(self.has_objective, "model has no objective");
        assert_eq!(lb.len(), self.n_struct);
        assert_eq!(ub.len(), self.n_struct);
        for i in 0..lb.len() {
            if lb[i] > ub[i] + opts.tol {
                return LpOutcome::Infeasible;
            }
        }
        let warm = self.warm.take();
        let mut solver = Solver::new(self, lb, ub, opts);
        let out = solver.solve(warm.as_ref());
        if let LpOutcome::Optimal(_) = out {
            self.warm = Some(WarmBasis {
                basis: std::mem::take(&mut solver.basis),
                at: std::mem::take(&mut solver.at),
            });
        }
        out
    }
}

/// One solve's mutable state over a borrowed [`LpContext`].
struct Solver<'a> {
    ctx: &'a LpContext,
    /// Current basis inverse, row-major `m × m`.
    binv: Vec<f64>,
    /// Current basic variable values (length m).
    bvals: Vec<f64>,
    /// Column index of the basic variable in each row.
    basis: Vec<usize>,
    /// basic[j] = Some(row) if column j is basic.
    in_basis: Vec<Option<usize>>,
    /// For nonbasic columns, which bound they rest at.
    at: Vec<AtBound>,
    /// Shifted bounds: all lower bounds are 0; `range[j]` = ub − lb.
    range: Vec<f64>,
    /// Shifted right-hand sides.
    rhs: Vec<f64>,
    /// Artificial-column signs per row (so starting values are ≥ 0).
    art_sign: Vec<f64>,
    /// Structural lower bounds (for un-shifting the solution).
    shift: Vec<f64>,
    /// Constant objective offset from the shift.
    obj_offset: f64,
    tol: f64,
    max_iters: usize,
    /// Scratch for FTRAN results.
    w: Vec<f64>,
    /// Scratch for BTRAN results.
    y: Vec<f64>,
    /// Telemetry, reported to `pm_obs` when recording is enabled.
    pivots: u64,
    bound_flips: u64,
    refactorizations: u64,
    reuse_hit: bool,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl<'a> Solver<'a> {
    fn new(ctx: &'a LpContext, lb: &[f64], ub: &[f64], opts: &SimplexOptions) -> Self {
        let m = ctx.m;
        let shift = lb.to_vec();
        let mut range: Vec<f64> = (0..ctx.n_struct).map(|j| ub[j] - lb[j]).collect();
        range.resize(ctx.n_fixed, f64::INFINITY);
        // Artificial ranges start at 0 and are opened only for the rows
        // phase 1 must repair.
        range.resize(ctx.ncols, 0.0);

        // Shifted rhs: b − A·shift, column-wise over the sparse storage.
        let mut rhs = ctx.rhs0.clone();
        for j in 0..ctx.n_struct {
            let s = shift[j];
            if s != 0.0 {
                for k in ctx.col_ptr[j]..ctx.col_ptr[j + 1] {
                    rhs[ctx.col_rows[k]] -= ctx.col_vals[k] * s;
                }
            }
        }
        let art_sign: Vec<f64> = rhs
            .iter()
            .map(|&b| if b < 0.0 { -1.0 } else { 1.0 })
            .collect();

        let obj_offset: f64 = (0..ctx.n_struct).map(|j| ctx.obj[j] * shift[j]).sum();
        let max_iters = if opts.max_iters == 0 {
            (200 * (m + ctx.ncols)).max(20_000)
        } else {
            opts.max_iters
        };

        Solver {
            ctx,
            binv: vec![0.0; m * m],
            bvals: vec![0.0; m],
            basis: vec![0; m],
            in_basis: vec![None; ctx.ncols],
            at: vec![AtBound::Lower; ctx.ncols],
            range,
            rhs,
            art_sign,
            shift,
            obj_offset,
            tol: opts.tol,
            max_iters,
            w: vec![0.0; m],
            y: vec![0.0; m],
            pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
            reuse_hit: false,
        }
    }

    /// The single entry of artificial column `j` (which lives on row
    /// `j − n_fixed`), or `None` for CSC columns.
    #[inline]
    fn artificial_row(&self, j: usize) -> Option<usize> {
        (j >= self.ctx.n_fixed).then(|| j - self.ctx.n_fixed)
    }

    /// Value a nonbasic column currently rests at (in shifted space).
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.at[j] {
            AtBound::Lower => 0.0,
            AtBound::Upper => self.range[j],
        }
    }

    /// FTRAN: `w = B⁻¹ · A_j` into the scratch vector.
    fn ftran(&mut self, j: usize) {
        let m = self.ctx.m;
        self.w.fill(0.0);
        if let Some(r) = self.artificial_row(j) {
            let s = self.art_sign[r];
            for i in 0..m {
                self.w[i] = s * self.binv[i * m + r];
            }
        } else {
            for k in self.ctx.col_ptr[j]..self.ctx.col_ptr[j + 1] {
                let row = self.ctx.col_rows[k];
                let v = self.ctx.col_vals[k];
                for i in 0..m {
                    self.w[i] += v * self.binv[i * m + row];
                }
            }
        }
    }

    /// BTRAN: `y = c_B · B⁻¹` into the scratch vector.
    fn btran(&mut self, c: &[f64]) {
        let m = self.ctx.m;
        self.y.fill(0.0);
        for i in 0..m {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                for k in 0..m {
                    self.y[k] += cb * self.binv[i * m + k];
                }
            }
        }
    }

    /// Reduced-cost numerator `c_j − y·A_j` given the current BTRAN result.
    #[inline]
    fn reduced_cost(&self, j: usize, c: &[f64]) -> f64 {
        let mut d = c[j];
        if let Some(r) = self.artificial_row(j) {
            d -= self.art_sign[r] * self.y[r];
        } else {
            for k in self.ctx.col_ptr[j]..self.ctx.col_ptr[j + 1] {
                d -= self.ctx.col_vals[k] * self.y[self.ctx.col_rows[k]];
            }
        }
        d
    }

    /// Rebuilds `B⁻¹` from the current basis columns by Gauss–Jordan
    /// elimination with partial pivoting and recomputes the basic values.
    /// Returns `false` when the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let m = self.ctx.m;
        self.refactorizations += 1;
        if m == 0 {
            return true;
        }
        // Assemble B column-by-column into a scratch matrix.
        let mut b = vec![0.0; m * m];
        for (i, &col) in self.basis.iter().enumerate() {
            if let Some(r) = self.artificial_row(col) {
                b[r * m + i] = self.art_sign[r];
            } else {
                for k in self.ctx.col_ptr[col]..self.ctx.col_ptr[col + 1] {
                    b[self.ctx.col_rows[k] * m + i] = self.ctx.col_vals[k];
                }
            }
        }
        // Invert in place against an identity.
        let inv = &mut self.binv;
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = b[col * m + col].abs();
            for r in col + 1..m {
                let v = b[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best <= 1e-12 {
                return false;
            }
            if piv != col {
                for k in 0..m {
                    b.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let p = b[col * m + col];
            let s = 1.0 / p;
            for k in 0..m {
                b[col * m + k] *= s;
                inv[col * m + k] *= s;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = b[r * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        b[r * m + k] -= f * b[col * m + k];
                        inv[r * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
        self.recompute_bvals();
        true
    }

    /// `x_B = B⁻¹ (b − Σ_{j at upper} A_j · range_j)`.
    fn recompute_bvals(&mut self) {
        let m = self.ctx.m;
        let mut b_eff = self.rhs.clone();
        for j in 0..self.ctx.ncols {
            if self.in_basis[j].is_none() && self.at[j] == AtBound::Upper {
                let v = self.range[j];
                if v != 0.0 {
                    if let Some(r) = self.artificial_row(j) {
                        b_eff[r] -= self.art_sign[r] * v;
                    } else {
                        for k in self.ctx.col_ptr[j]..self.ctx.col_ptr[j + 1] {
                            b_eff[self.ctx.col_rows[k]] -= self.ctx.col_vals[k] * v;
                        }
                    }
                }
            }
        }
        for i in 0..m {
            let mut x = 0.0;
            for k in 0..m {
                x += self.binv[i * m + k] * b_eff[k];
            }
            self.bvals[i] = x;
        }
    }

    fn solve(&mut self, warm: Option<&WarmBasis>) -> LpOutcome {
        let out = self.solve_phases(warm);
        if pm_obs::enabled() {
            pm_obs::count("milp.simplex.solves", 1);
            pm_obs::count("milp.simplex.pivots", self.pivots);
            pm_obs::count("milp.simplex.bound_flips", self.bound_flips);
            pm_obs::count("milp.simplex.refactorizations", self.refactorizations);
            pm_obs::count("milp.basis.reuse_hits", u64::from(self.reuse_hit));
        }
        out
    }

    /// Installs the warm basis if it stays primal-feasible under the
    /// current bounds. On success phase 1 can be skipped outright.
    fn try_warm(&mut self, warm: &WarmBasis) -> bool {
        let m = self.ctx.m;
        if warm.basis.len() != m || warm.at.len() != self.ctx.ncols {
            return false;
        }
        self.basis.copy_from_slice(&warm.basis);
        for (j, slot) in self.in_basis.iter_mut().enumerate() {
            *slot = None;
            self.at[j] = warm.at[j];
        }
        for (i, &col) in self.basis.iter().enumerate() {
            self.in_basis[col] = Some(i);
        }
        // Bound changes may have invalidated upper rests (range now
        // infinite or the variable is newly fixed).
        for j in 0..self.ctx.ncols {
            if self.in_basis[j].is_none()
                && self.at[j] == AtBound::Upper
                && !self.range[j].is_finite()
            {
                self.at[j] = AtBound::Lower;
            }
        }
        if !self.refactor() {
            return false;
        }
        let slack = self.tol.max(1e-7) * 10.0;
        for i in 0..m {
            let hi = self.range[self.basis[i]];
            if self.bvals[i] < -slack || self.bvals[i] > hi + slack {
                return false;
            }
        }
        // Clamp roundoff the way pivoting does.
        for i in 0..m {
            if self.bvals[i] < 0.0 {
                self.bvals[i] = 0.0;
            }
        }
        true
    }

    fn solve_phases(&mut self, warm: Option<&WarmBasis>) -> LpOutcome {
        let m = self.ctx.m;

        if let Some(warm) = warm {
            if self.try_warm(warm) {
                self.reuse_hit = true;
                let obj = self.ctx.obj.clone();
                match self.optimize(&obj) {
                    PhaseEnd::Optimal => return self.assemble(),
                    PhaseEnd::Unbounded => return LpOutcome::Unbounded,
                    PhaseEnd::IterationLimit => return LpOutcome::IterationLimit,
                }
            }
        }

        // Cold start: slack/surplus basis where the shifted rhs allows it,
        // artificial basis elsewhere; phase 1 drives the artificials out.
        let mut need_phase1 = false;
        for (j, slot) in self.in_basis.iter_mut().enumerate() {
            *slot = None;
            self.at[j] = AtBound::Lower;
        }
        for i in 0..m {
            let feasible_slack = match (self.senses(i), self.rhs[i] >= 0.0) {
                (Sense::Le, true) => self.ctx.slack_col[i],
                (Sense::Ge, false) => self.ctx.slack_col[i],
                _ => None,
            };
            let col = match feasible_slack {
                Some(col) => col,
                None => {
                    // Open this row's artificial for phase 1.
                    let col = self.ctx.n_fixed + i;
                    self.range[col] = f64::INFINITY;
                    if self.rhs[i] != 0.0 {
                        need_phase1 = true;
                    }
                    col
                }
            };
            self.basis[i] = col;
            self.in_basis[col] = Some(i);
            self.bvals[i] = self.rhs[i].abs();
            let mm = m;
            // Diagonal B⁻¹: the basic column's single entry is ±1.
            let diag = if self.artificial_row(col).is_some() {
                self.art_sign[i]
            } else {
                match self.senses(i) {
                    Sense::Le => 1.0,
                    Sense::Ge => -1.0,
                    Sense::Eq => unreachable!("equality basis is artificial"),
                }
            };
            for k in 0..mm {
                self.binv[i * mm + k] = 0.0;
            }
            self.binv[i * mm + i] = diag;
        }

        // Phase 1: drive artificials to zero.
        if need_phase1 {
            let mut phase1 = vec![0.0; self.ctx.ncols];
            for j in self.ctx.n_fixed..self.ctx.ncols {
                phase1[j] = -1.0;
            }
            match self.optimize(&phase1) {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
                PhaseEnd::IterationLimit => return LpOutcome::IterationLimit,
            }
            let infeas: f64 = (self.ctx.n_fixed..self.ctx.ncols)
                .map(|a| match self.in_basis[a] {
                    Some(row) => self.bvals[row],
                    None => self.nonbasic_value(a),
                })
                .sum();
            if infeas > self.tol.max(1e-7) * 10.0 {
                return LpOutcome::Infeasible;
            }
        }
        // Fix artificials at zero for phase 2.
        for a in self.ctx.n_fixed..self.ctx.ncols {
            self.range[a] = 0.0;
            if self.in_basis[a].is_none() {
                self.at[a] = AtBound::Lower;
            }
        }

        let obj = self.ctx.obj.clone();
        match self.optimize(&obj) {
            PhaseEnd::Optimal => self.assemble(),
            PhaseEnd::Unbounded => LpOutcome::Unbounded,
            PhaseEnd::IterationLimit => LpOutcome::IterationLimit,
        }
    }

    #[inline]
    fn senses(&self, i: usize) -> Sense {
        self.ctx.senses[i]
    }

    /// Assembles structural values, un-shifting.
    fn assemble(&self) -> LpOutcome {
        let mut values = vec![0.0; self.ctx.n_struct];
        for j in 0..self.ctx.n_struct {
            let x = match self.in_basis[j] {
                Some(row) => self.bvals[row],
                None => self.nonbasic_value(j),
            };
            values[j] = x + self.shift[j];
        }
        let objective: f64 = (0..self.ctx.n_struct)
            .map(|j| {
                self.ctx.obj[j]
                    * (match self.in_basis[j] {
                        Some(row) => self.bvals[row],
                        None => self.nonbasic_value(j),
                    })
            })
            .sum::<f64>()
            + self.obj_offset;
        LpOutcome::Optimal(LpSolution { objective, values })
    }

    /// Runs revised primal simplex iterations for the given column costs.
    fn optimize(&mut self, c: &[f64]) -> PhaseEnd {
        let m = self.ctx.m;
        let bland_after = self.max_iters / 2;
        for iter in 0..self.max_iters {
            let bland = iter >= bland_after;
            // Price: y = c_B·B⁻¹, d_j = c_j − y·A_j.
            self.btran(c);
            let mut entering: Option<(usize, f64, bool)> = None; // (col, score, increase)
            for j in 0..self.ctx.ncols {
                if self.in_basis[j].is_some() || self.range[j] <= self.tol {
                    continue;
                }
                let d = self.reduced_cost(j, c);
                let (eligible, increase) = match self.at[j] {
                    AtBound::Lower => (d > self.tol, true),
                    AtBound::Upper => (d < -self.tol, false),
                };
                if eligible {
                    let score = d.abs();
                    if bland {
                        entering = Some((j, score, increase));
                        break;
                    }
                    if entering.map_or(true, |(_, s, _)| score > s) {
                        entering = Some((j, score, increase));
                    }
                }
            }
            let Some((j, _, increase)) = entering else {
                return PhaseEnd::Optimal;
            };
            let delta = if increase { 1.0 } else { -1.0 };

            // Ratio test on w = B⁻¹A_j: x_B(t) = bvals − t·delta·w; the
            // entering column moves t·delta from its bound, with its own
            // range as a flip limit.
            self.ftran(j);
            let mut t_limit = self.range[j]; // bound flip distance
            let mut leaving: Option<(usize, AtBound)> = None; // (row, bound hit)
            for i in 0..m {
                let a_eff = self.w[i] * delta;
                if a_eff > self.tol {
                    // Basic value decreases toward 0 (its shifted lb).
                    let room = self.bvals[i];
                    let t = (room / a_eff).max(0.0);
                    if t < t_limit {
                        t_limit = t;
                        leaving = Some((i, AtBound::Lower));
                    }
                } else if a_eff < -self.tol {
                    // Basic value increases toward its range (shifted ub).
                    let ub = self.range[self.basis[i]];
                    if ub.is_finite() {
                        let room = ub - self.bvals[i];
                        let t = (room / -a_eff).max(0.0);
                        if t < t_limit {
                            t_limit = t;
                            leaving = Some((i, AtBound::Upper));
                        }
                    }
                }
            }

            if t_limit.is_infinite() {
                return PhaseEnd::Unbounded;
            }

            match leaving {
                None => {
                    // Bound flip: entering travels its whole range.
                    self.bound_flips += 1;
                    let t = t_limit;
                    for i in 0..m {
                        self.bvals[i] -= t * self.w[i] * delta;
                    }
                    self.at[j] = match self.at[j] {
                        AtBound::Lower => AtBound::Upper,
                        AtBound::Upper => AtBound::Lower,
                    };
                }
                Some((r, hit)) => {
                    self.pivots += 1;
                    let t = t_limit;
                    // Move all basic values.
                    for i in 0..m {
                        self.bvals[i] -= t * self.w[i] * delta;
                    }
                    // Entering variable's new value (shifted space).
                    let enter_val = self.nonbasic_value(j) + delta * t;
                    let leaving_col = self.basis[r];
                    // Product-form update of B⁻¹ on pivot element w[r].
                    let p = self.w[r];
                    debug_assert!(p.abs() > 1e-12, "pivot too small");
                    let inv = 1.0 / p;
                    for k in 0..m {
                        self.binv[r * m + k] *= inv;
                    }
                    for i in 0..m {
                        if i == r {
                            continue;
                        }
                        let f = self.w[i];
                        if f != 0.0 {
                            for k in 0..m {
                                let v = self.binv[r * m + k];
                                self.binv[i * m + k] -= f * v;
                            }
                        }
                    }
                    self.basis[r] = j;
                    self.in_basis[j] = Some(r);
                    self.in_basis[leaving_col] = None;
                    self.at[leaving_col] = hit;
                    self.bvals[r] = enter_val;
                    // Clamp tiny negatives from roundoff.
                    for i in 0..m {
                        if self.bvals[i] < 0.0 && self.bvals[i] > -self.tol * 10.0 {
                            self.bvals[i] = 0.0;
                        }
                    }
                    // Periodic refactorization bounds inverse drift.
                    if self.pivots % REFACTOR_PERIOD == 0 && !self.refactor() {
                        // A singular rebuild means accumulated drift broke
                        // the basis; treat like the iteration cap so the
                        // caller can retry instead of looping on garbage.
                        return PhaseEnd::IterationLimit;
                    }
                }
            }
        }
        PhaseEnd::IterationLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    fn solve(m: &Model) -> LpSolution {
        match solve_relaxation(m, &opts()) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_two_var() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2  => 10 at (2, 2).
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::non_negative());
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        m.add_constraint([(x, 1.0)], Sense::Le, 2.0);
        m.maximize([(x, 3.0), (y, 2.0)]);
        let s = solve(&m);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.value_of(x) - 2.0).abs() < 1e-6);
        assert!((s.value_of(y) - 2.0).abs() < 1e-6);
    }

    impl LpSolution {
        fn value_of(&self, v: crate::Var) -> f64 {
            self.values[v.index()]
        }
    }

    #[test]
    fn upper_bounds_without_rows() {
        // max x + y with x ∈ [0, 1.5], y ∈ [0, 2.5], x + y <= 3 => 3.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.5 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 2.5 });
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y s.t. x + y >= 3, x >= 1, y >= 0.5 => objective 3.
        let mut m = Model::new();
        let x = m.add_var(
            "x",
            VarKind::Continuous {
                lb: 1.0,
                ub: f64::INFINITY,
            },
        );
        let y = m.add_var(
            "y",
            VarKind::Continuous {
                lb: 0.5,
                ub: f64::INFINITY,
            },
        );
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        m.minimize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!(
            (s.objective + 3.0).abs() < 1e-6,
            "max of negated = -3, got {}",
            s.objective
        );
        assert!(s.value_of(x) >= 1.0 - 1e-9);
        assert!(s.value_of(y) >= 0.5 - 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max 2x + y s.t. x + y = 5, x <= 3 => x=3, y=2, obj=8.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        m.maximize([(x, 2.0), (y, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!((s.value_of(x) + s.value_of(y) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        m.add_constraint([(x, 1.0)], Sense::Ge, 2.0);
        m.maximize([(x, 1.0)]);
        assert_eq!(solve_relaxation(&m, &opts()), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::non_negative());
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        m.maximize([(x, 1.0)]);
        assert_eq!(solve_relaxation(&m, &opts()), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -1 with x, y in [0, 5]; max x => x = 4 when y = 5.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 5.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 5.0 });
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Le, -1.0);
        m.maximize([(x, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate LP; just require termination at the optimum.
        let mut m = Model::new();
        let x1 = m.add_var("x1", VarKind::non_negative());
        let x2 = m.add_var("x2", VarKind::non_negative());
        let x3 = m.add_var("x3", VarKind::non_negative());
        let x4 = m.add_var("x4", VarKind::non_negative());
        m.add_constraint(
            [(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint(
            [(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint([(x1, 1.0)], Sense::Le, 1.0);
        m.maximize([(x1, 10.0), (x2, -57.0), (x3, -9.0), (x4, -24.0)]);
        let s = solve(&m);
        assert!(
            (s.objective - 1.0).abs() < 1e-5,
            "known optimum is 1, got {}",
            s.objective
        );
    }

    #[test]
    fn zero_constraint_model() {
        // Pure bounds: max x + 2y with x ∈ [0,1], y ∈ [0,2].
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 2.0 });
        m.maximize([(x, 1.0), (y, 2.0)]);
        let s = solve(&m);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.5, ub: 4.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        m.add_constraint([(x, 2.0), (y, 1.0)], Sense::Le, 6.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Sense::Ge, 2.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!(
            m.is_feasible(&s.values, 1e-6),
            "{:?}",
            m.violation(&s.values, 1e-6)
        );
    }

    #[test]
    fn tightened_bounds_override() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 10.0 });
        m.maximize([(x, 1.0)]);
        let out = solve_with_bounds(&m, &[0.0], &[2.0], &opts());
        let s = out.solution().expect("optimal");
        assert!((s.objective - 2.0).abs() < 1e-9);
        // Contradictory bounds are infeasible.
        assert_eq!(
            solve_with_bounds(&m, &[3.0], &[2.0], &opts()),
            LpOutcome::Infeasible
        );
    }

    #[test]
    fn context_reuse_matches_one_shot_solves() {
        // The same context solved under a sequence of branch-style bound
        // tightenings must agree with fresh one-shot solves each time.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        let z = m.add_var("z", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        m.add_constraint([(x, 1.0), (y, 2.0), (z, 1.0)], Sense::Le, 8.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Ge, -1.0);
        m.add_constraint([(y, 1.0), (z, 1.0)], Sense::Le, 5.0);
        m.maximize([(x, 2.0), (y, 3.0), (z, 1.0)]);
        let mut ctx = LpContext::new(&m);
        let cases: [([f64; 3], [f64; 3]); 4] = [
            ([0.0, 0.0, 0.0], [4.0, 4.0, 4.0]),
            ([0.0, 0.0, 0.0], [4.0, 2.0, 4.0]),
            ([0.0, 3.0, 0.0], [4.0, 4.0, 4.0]),
            ([1.0, 0.0, 2.0], [2.0, 4.0, 4.0]),
        ];
        for (lb, ub) in cases {
            let warm = ctx.solve_with_bounds(&lb, &ub, &opts());
            let cold = solve_with_bounds(&m, &lb, &ub, &opts());
            let (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) = (&warm, &cold) else {
                panic!("expected optimal pairs, got {warm:?} / {cold:?}");
            };
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "bounds {lb:?}/{ub:?}: warm {} vs cold {}",
                a.objective,
                b.objective
            );
            assert!(m.is_feasible(&a.values, 1e-6));
        }
    }

    #[test]
    fn warm_start_survives_infeasible_tightening() {
        // An infeasible node between two feasible ones must not poison the
        // retained basis.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);
        m.maximize([(x, 1.0), (y, 2.0)]);
        let mut ctx = LpContext::new(&m);
        let o1 = ctx.solve_with_bounds(&[0.0, 0.0], &[3.0, 3.0], &opts());
        assert!(o1.solution().is_some());
        let o2 = ctx.solve_with_bounds(&[3.0, 3.0], &[3.0, 3.0], &opts());
        assert_eq!(o2, LpOutcome::Infeasible);
        let o3 = ctx.solve_with_bounds(&[0.0, 1.0], &[3.0, 3.0], &opts());
        let s = o3.solution().expect("feasible again");
        assert!((s.objective - 7.0).abs() < 1e-6, "got {}", s.objective);
    }
}
