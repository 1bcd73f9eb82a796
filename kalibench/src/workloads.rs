//! The three workloads. Each is a closed loop driven from this process on
//! a two-processor machine (one OS thread per processor on a 2-core box,
//! so no oversubscription): the next unit starts only when the previous
//! one has finished.
//!
//! * `mg2_latency` and `jacobi_compute` keep one machine alive for a
//!   *session*: a cold unit (set-up), a barrier, then a fixed number of
//!   warm units. The fixed count keeps every rank's loop SPMD-uniform
//!   without a per-unit stop vote, which would add messages to what is
//!   measured. A session's answer is checked once, at its end.
//! * `schedule_churn` builds its machines inside the unit, so each unit
//!   is timed and checked from the host.
//!
//! Inputs come from the seed only; the program receives the generated
//! arrays, matrices and request streams.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kali::array::{DistArray1, DistArray2, SparseCsr};
use kali::grid::{DistSpec, ProcGrid};
use kali::kernels::{thomas, TriDiag};
use kali::lang::{listing, run_source, HostValue};
use kali::machine::{BackendKind, CostModel, Machine, MachineBuilder, Topology};
use kali::runtime::{Ctx, ExecPolicy, Ghosts};
use kali::serve::{serve, DistKind, ServeConfig, SolveRequest, SolverKind};
use kali::solvers::adi::{adi_seq_iteration, suggested_rho};
use kali::solvers::cg::{cg, cg_seq};
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::mg2::mg2_vcycle;
use kali::solvers::seq::{apply2, jacobi_seq_step, mg2_seq, Grid2};
use kali::solvers::Pde;

use crate::counters::Counters;
use crate::stats::{median, Rng};
use crate::trace::{span, Tracer, HOST_TID};

/// Processors per machine: one OS thread each.
pub const NPROCS: usize = 2;

/// Set-ups measured per run, at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 10;

pub fn machine(backend: BackendKind) -> MachineBuilder {
    Machine::build(backend, Topology::FullyConnected, CostModel::ipsc2())
        .procs(NPROCS)
        .watchdog(Duration::from_secs(60))
}

/// Consecutive warm units: one session, or `BLOCK_UNITS` units of a
/// host loop.
#[derive(Debug, Default)]
pub struct Block {
    /// Unit durations, seconds (slowest rank for session units).
    pub unit_s: Vec<f64>,
    /// Wall seconds the block's units took together.
    pub wall_s: f64,
}

/// Host-loop units per block; a block lasts a few tenths of a second.
const BLOCK_UNITS: usize = 8;

/// Fewest units the end-to-end timings are taken over.
const MIN_FASTEST: usize = 120;

/// Wall-clock measurements of one run on the threads backend.
#[derive(Debug, Default)]
pub struct Timed {
    pub blocks: Vec<Block>,
    /// One sample per set-up: workload start to end of the cold unit.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-unit wall seconds of the solver part the sequential
    /// reference replaces (the whole unit unless a workload says not).
    pub solver_s: Vec<f64>,
}

impl Timed {
    fn fail(&mut self, units: u64, why: &str) {
        eprintln!("unit check failed: {why}");
        self.failed += units;
    }

    /// The units of the fastest blocks, ranked by median unit time, and
    /// the wall seconds they took: a tenth of all warm units, and at
    /// least `MIN_FASTEST` so that their 90th percentile has ten samples
    /// beyond it. Other guests of a shared host slow whole stretches of
    /// a run by up to 2x; the fastest blocks measure the program with
    /// the least of that.
    pub fn fastest(&self) -> (Vec<f64>, f64) {
        let mut order: Vec<(f64, &Block)> =
            self.blocks.iter().map(|b| (median(&b.unit_s), b)).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: usize = self.blocks.iter().map(|b| b.unit_s.len()).sum();
        let want = total.div_ceil(10).max(MIN_FASTEST);
        let (mut units, mut wall) = (Vec::new(), 0.0);
        for (_, b) in order {
            if units.len() >= want {
                break;
            }
            units.extend_from_slice(&b.unit_s);
            wall += b.wall_s;
        }
        (units, wall)
    }

    /// Every warm unit of the run.
    pub fn all_units(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.unit_s.iter().copied())
            .collect()
    }
}

/// Virtual-time measurements of one run on the Sim backend.
#[derive(Debug, Default, Clone)]
pub struct Simmed {
    /// Virtual seconds per warm unit.
    pub unit_s: f64,
    /// Counters per warm unit, summed over processors.
    pub per_unit: Counters,
    pub attempted: u64,
    pub failed: u64,
    /// Serve pass counters (`schedule_churn` only).
    pub serve_evictions: f64,
    pub serve_cache_len: f64,
    /// CG iterations per solve (`schedule_churn` only).
    pub cg_iters: f64,
}

/// A grid of the workload, for the standalone halo-refresh and
/// row-versus-point probes.
#[derive(Debug, Clone)]
pub struct GridShape {
    pub grid: ProcGrid,
    pub spec: DistSpec,
    pub extents: [usize; 2],
    pub ghosts: Ghosts,
}

pub trait Workload: Sync {
    /// Threads backend for about `budget` of wall time, spans into `tr`.
    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Timed;
    /// Sim backend under `policy`: virtual time and counters per unit.
    fn simmed(&self, policy: ExecPolicy) -> Simmed;
    /// Wall seconds of the single-threaded reference for one unit.
    fn seq_unit_s(&self) -> f64;
    /// The finest grid the workload sweeps.
    fn finest(&self) -> GridShape;
    /// Grid points updated per unit (stencil points, sparse rows).
    fn points_per_unit(&self) -> f64;
}

/// Workload sizes: `full` defines the benchmark, `small` its tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Small,
}

pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mg2_latency" => Box::new(Mg2::new(seed, size)),
        "jacobi_compute" => Box::new(Jacobi::new(seed, size)),
        "schedule_churn" => Box::new(Churn::new(seed, size)),
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 3] = ["mg2_latency", "jacobi_compute", "schedule_churn"];

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

// ---------------------------------------------------------------------
// Session workloads: one machine, a cold unit, then `units` warm ones.

/// What a session workload does on each rank.
trait Session: Sync {
    type State;
    fn grid(&self) -> ProcGrid;
    fn init(&self, rank: usize) -> Self::State;
    /// Span name of the unit's call into the program.
    const CALL: &'static str;
    fn unit(&self, ctx: &mut Ctx, st: &mut Self::State);
    /// The unit's answer, gathered to rank 0.
    fn answer(&self, ctx: &mut Ctx, st: &Self::State) -> Option<Vec<f64>>;
}

struct RankOut {
    cold_end: f64,
    durs: Vec<f64>,
    vdurs: Vec<f64>,
    region: f64,
    counters: Counters,
    answer: Option<Vec<f64>>,
}

struct SessionOut {
    setup_s: f64,
    unit_s: Vec<f64>,
    vunit_s: Vec<f64>,
    region_s: f64,
    counters: Counters,
    answer: Vec<f64>,
}

fn run_session<W: Session>(
    w: &W,
    backend: BackendKind,
    policy: ExecPolicy,
    units: usize,
    tr: Option<&Tracer>,
    unit_base: u64,
) -> Result<SessionOut, String> {
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        span(tr, "machine.run", HOST_TID, None, None, |parent| {
            machine(backend).run(|proc| {
                let rank = proc.rank();
                let mut st = w.init(rank);
                let mut ctx = Ctx::with_policy(proc, w.grid(), policy);
                span(tr, W::CALL, rank, parent, Some(unit_base), |_| {
                    w.unit(&mut ctx, &mut st)
                });
                let cold_end = t0.elapsed().as_secs_f64();
                ctx.barrier();
                let c0 = Counters::of(ctx.proc().stats());
                let mut durs = Vec::with_capacity(units);
                let mut vdurs = Vec::with_capacity(units);
                let r0 = Instant::now();
                for k in 0..units {
                    let v = ctx.proc().clock();
                    let t = Instant::now();
                    let id = unit_base + 1 + k as u64;
                    span(tr, W::CALL, rank, parent, Some(id), |_| {
                        w.unit(&mut ctx, &mut st)
                    });
                    durs.push(t.elapsed().as_secs_f64());
                    vdurs.push(ctx.proc().clock() - v);
                }
                let region = r0.elapsed().as_secs_f64();
                let counters = Counters::of(ctx.proc().stats()) - c0;
                let answer = w.answer(&mut ctx, &st);
                RankOut {
                    cold_end,
                    durs,
                    vdurs,
                    region,
                    counters,
                    answer,
                }
            })
        })
    }))
    .map_err(panic_text)?;
    let outs = run.results;
    let max_by = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    let per_unit = |f: &dyn Fn(&RankOut, usize) -> f64| -> Vec<f64> {
        (0..units)
            .map(|k| outs.iter().map(|o| f(o, k)).fold(0.0, f64::max))
            .collect()
    };
    Ok(SessionOut {
        setup_s: max_by(&|o| o.cold_end),
        unit_s: per_unit(&|o, k| o.durs[k]),
        vunit_s: per_unit(&|o, k| o.vdurs[k]),
        region_s: max_by(&|o| o.region),
        counters: outs.iter().fold(Counters::default(), |a, o| a + o.counters),
        answer: outs
            .into_iter()
            .find_map(|o| o.answer)
            .ok_or("no rank returned the answer")?,
    })
}

/// Sessions on threads until `budget` is spent (at least `MIN_SETUPS`),
/// each session's answer checked by `check`.
fn timed_sessions<W: Session>(
    w: &W,
    units: usize,
    budget: Duration,
    tr: Option<&Tracer>,
    check: impl Fn(&[f64]) -> Result<(), String>,
) -> Timed {
    let mut out = Timed::default();
    let start = Instant::now();
    let mut sessions = 0u64;
    while sessions < MIN_SETUPS as u64 || start.elapsed() < budget {
        let per = 1 + units as u64;
        out.attempted += per;
        match run_session(
            w,
            BackendKind::Threads,
            ExecPolicy::default(),
            units,
            tr,
            sessions * per,
        ) {
            Ok(s) => {
                if let Err(e) = check(&s.answer) {
                    out.fail(per, &e);
                } else {
                    out.setup_s.push(s.setup_s);
                    out.solver_s.extend_from_slice(&s.unit_s);
                    out.blocks.push(Block {
                        unit_s: s.unit_s,
                        wall_s: s.region_s,
                    });
                }
            }
            Err(e) => out.fail(per, &e),
        }
        sessions += 1;
    }
    out
}

fn simmed_session<W: Session>(
    w: &W,
    units: usize,
    policy: ExecPolicy,
    check: impl Fn(&[f64]) -> Result<(), String>,
) -> Simmed {
    let mut out = Simmed {
        attempted: 1 + units as u64,
        ..Simmed::default()
    };
    match run_session(w, BackendKind::Sim, policy, units, None, 0) {
        Ok(s) => {
            if let Err(e) = check(&s.answer) {
                eprintln!("sim check failed: {e}");
                out.failed = out.attempted;
            }
            out.unit_s = median(&s.vunit_s);
            out.per_unit = s.counters.scale(1.0 / units as f64);
        }
        Err(e) => {
            eprintln!("sim session failed: {e}");
            out.failed = out.attempted;
        }
    }
    out
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn within(got: &[f64], want: &[f64], tol: f64, what: &str) -> Result<(), String> {
    let d = max_abs_diff(got, want);
    if d <= tol {
        Ok(())
    } else {
        Err(format!("{what}: max |diff| {d:e} > {tol:e}"))
    }
}

fn bitwise(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        Ok(())
    } else {
        Err(format!("{what}: not bitwise equal to the reference"))
    }
}

fn random_interior(nx: usize, ny: usize, rng: &mut Rng, scale: f64) -> Grid2 {
    Grid2::from_fn(nx, ny, |i, j| {
        if i == 0 || i == nx || j == 0 || j == ny {
            0.0
        } else {
            scale * (rng.unit() - 0.5)
        }
    })
}

/// Median wall seconds per call of `f` over `reps` calls.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

// ---------------------------------------------------------------------

/// `mg2_latency`: V-cycles of the semicoarsening multigrid on a 64×64
/// anisotropic problem, `(*, block)` over two ranks. Dozens of small
/// corner-completing halo messages per cycle, all warm ones cache hits:
/// the machine, sched and halo layers do most of the work.
pub struct Mg2 {
    n: usize,
    units: usize,
    sim_units: usize,
    pde: Pde,
    f: Arc<Grid2>,
    /// Sequential answers after `1 + sim_units` and `1 + units` cycles.
    want_sim: Vec<f64>,
    want: Vec<f64>,
    seq_cycle_s: f64,
}

impl Mg2 {
    pub fn new(seed: u64, size: Size) -> Self {
        let (n, units) = match size {
            Size::Full => (64, 500),
            Size::Small => (16, 6),
        };
        let sim_units = 4;
        let pde = Pde::anisotropic(3.0, 1.0, 0.0);
        let mut rng = Rng::new(seed);
        let f = apply2(&pde, &random_interior(n, n, &mut rng, 1.0));
        let mut u = Grid2::zeros(n, n);
        let mut want_sim = Vec::new();
        let mut cycle_s = Vec::with_capacity(units + 1);
        for k in 0..=units {
            let t = Instant::now();
            mg2_seq(&pde, &mut u, &f);
            cycle_s.push(t.elapsed().as_secs_f64());
            if k == sim_units {
                want_sim = u.v.clone();
            }
        }
        Mg2 {
            n,
            units,
            sim_units,
            pde,
            f: Arc::new(f),
            want_sim,
            want: u.v,
            seq_cycle_s: median(&cycle_s),
        }
    }
}

impl Session for Mg2 {
    type State = (DistArray2<f64>, DistArray2<f64>);
    const CALL: &'static str = "solvers.mg2_vcycle";

    fn grid(&self) -> ProcGrid {
        ProcGrid::new_1d(NPROCS)
    }

    fn init(&self, rank: usize) -> Self::State {
        let (g, spec, e) = (self.grid(), DistSpec::local_block(), [self.n + 1; 2]);
        let u = DistArray2::new(rank, &g, &spec, e, [0, 1]);
        let f = DistArray2::from_fn(rank, &g, &spec, e, [0, 1], |[i, j]| self.f.at(i, j));
        (u, f)
    }

    fn unit(&self, ctx: &mut Ctx, (u, f): &mut Self::State) {
        mg2_vcycle(ctx, &self.pde, u, f);
    }

    fn answer(&self, ctx: &mut Ctx, (u, _): &Self::State) -> Option<Vec<f64>> {
        u.gather_to_root(ctx.proc())
    }
}

impl Workload for Mg2 {
    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Timed {
        timed_sessions(self, self.units, budget, tr, |got| {
            within(got, &self.want, 1e-9, "mg2 vs mg2_seq")
        })
    }

    fn simmed(&self, policy: ExecPolicy) -> Simmed {
        simmed_session(self, self.sim_units, policy, |got| {
            within(got, &self.want_sim, 1e-9, "sim mg2 vs mg2_seq")
        })
    }

    fn seq_unit_s(&self) -> f64 {
        self.seq_cycle_s
    }

    fn finest(&self) -> GridShape {
        GridShape {
            grid: self.grid(),
            spec: DistSpec::local_block(),
            extents: [self.n + 1; 2],
            ghosts: Ghosts::full(1),
        }
    }

    fn points_per_unit(&self) -> f64 {
        // Pre- and post-smoothing relax every interior point of every
        // semicoarsened level once each.
        let mut pts = 0.0;
        let mut ny = self.n;
        while ny >= 2 {
            pts += 2.0 * ((self.n - 1) * (ny - 1)) as f64;
            ny /= 2;
        }
        pts
    }
}

// ---------------------------------------------------------------------

/// `jacobi_compute`: row-form Jacobi sweeps on a 1025×1025 grid,
/// `(block, *)` over two ranks. Two face messages per sweep: interior
/// compute dominates, so a messaging change must not move it.
pub struct Jacobi {
    n: usize,
    units: usize,
    sim_units: usize,
    u0: Arc<Grid2>,
    f: Arc<Grid2>,
    want_sim: Vec<f64>,
    want: Vec<f64>,
    seq_sweep_s: f64,
}

impl Jacobi {
    pub fn new(seed: u64, size: Size) -> Self {
        let (n, units) = match size {
            Size::Full => (1024, 200),
            Size::Small => (32, 6),
        };
        let sim_units = 3;
        let mut rng = Rng::new(seed);
        let u0 = random_interior(n, n, &mut rng.fork(), 1.0);
        let f = random_interior(n, n, &mut rng.fork(), 1e-3);
        let mut u = u0.clone();
        let mut want_sim = Vec::new();
        let mut sweep_s = Vec::with_capacity(units + 1);
        for k in 0..=units {
            let t = Instant::now();
            jacobi_seq_step(&mut u, &f);
            sweep_s.push(t.elapsed().as_secs_f64());
            if k == sim_units {
                want_sim = u.v.clone();
            }
        }
        Jacobi {
            n,
            units,
            sim_units,
            u0: Arc::new(u0),
            f: Arc::new(f),
            want_sim,
            want: u.v,
            seq_sweep_s: median(&sweep_s),
        }
    }
}

impl Session for Jacobi {
    type State = (DistArray2<f64>, DistArray2<f64>);
    const CALL: &'static str = "solvers.jacobi_step";

    fn grid(&self) -> ProcGrid {
        ProcGrid::new_1d(NPROCS)
    }

    fn init(&self, rank: usize) -> Self::State {
        let (g, spec, e) = (self.grid(), DistSpec::block_local(), [self.n + 1; 2]);
        let u = DistArray2::from_fn(rank, &g, &spec, e, [1, 1], |[i, j]| self.u0.at(i, j));
        let f = DistArray2::from_fn(rank, &g, &spec, e, [0, 0], |[i, j]| self.f.at(i, j));
        (u, f)
    }

    fn unit(&self, ctx: &mut Ctx, (u, f): &mut Self::State) {
        jacobi_step::<f64>(ctx, u, f);
    }

    fn answer(&self, ctx: &mut Ctx, (u, _): &Self::State) -> Option<Vec<f64>> {
        u.gather_to_root(ctx.proc())
    }
}

impl Workload for Jacobi {
    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Timed {
        timed_sessions(self, self.units, budget, tr, |got| {
            bitwise(got, &self.want, "jacobi vs jacobi_seq_step")
        })
    }

    fn simmed(&self, policy: ExecPolicy) -> Simmed {
        simmed_session(self, self.sim_units, policy, |got| {
            bitwise(got, &self.want_sim, "sim jacobi vs jacobi_seq_step")
        })
    }

    fn seq_unit_s(&self) -> f64 {
        self.seq_sweep_s
    }

    fn finest(&self) -> GridShape {
        GridShape {
            grid: self.grid(),
            spec: DistSpec::block_local(),
            extents: [self.n + 1; 2],
            ghosts: Ghosts::faces(1),
        }
    }

    fn points_per_unit(&self) -> f64 {
        ((self.n - 1) * (self.n - 1)) as f64
    }
}

// ---------------------------------------------------------------------
// Host-loop workloads: every unit builds its own machines.

/// Units until `budget` is spent. Every unit builds its machines and
/// caches from scratch, so a set-up is simply a unit: `MIN_SETUPS` of
/// them are spread evenly over the run, so that slow phases of a shared
/// host weigh on set-up and warm samples alike. Warm units fill blocks
/// of `BLOCK_UNITS`.
fn host_loop(
    budget: Duration,
    tr: Option<&Tracer>,
    mut unit: impl FnMut(u64, Option<u64>) -> Result<f64, String>,
) -> Timed {
    let mut out = Timed::default();
    let (start, mut setups) = (Instant::now(), 0);
    let mut block = Block::default();
    let mut k = 0u64;
    while setups < MIN_SETUPS || start.elapsed() < budget || k == setups as u64 {
        let due = budget.mul_f64(setups as f64 / MIN_SETUPS as f64);
        let setup = setups < MIN_SETUPS && start.elapsed() >= due;
        out.attempted += 1;
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            span(tr, "bench.unit", HOST_TID, None, Some(k), |p| unit(k, p))
        }));
        let dt = t.elapsed().as_secs_f64();
        k += 1;
        setups += setup as usize;
        let part = match r.map_err(panic_text).and_then(|x| x) {
            Ok(part) => part,
            Err(e) => {
                out.fail(1, &e);
                continue;
            }
        };
        if setup {
            out.setup_s.push(dt);
        } else {
            out.solver_s.push(part);
            block.unit_s.push(dt);
            block.wall_s += dt;
            if block.unit_s.len() == BLOCK_UNITS {
                out.blocks.push(std::mem::take(&mut block));
            }
        }
    }
    if out.blocks.is_empty() && !block.unit_s.is_empty() {
        out.blocks.push(block);
    }
    out
}

/// One shipped listing with its host arguments and expected answer.
struct Case {
    listing: &'static str,
    entry: &'static str,
    dims: Vec<usize>,
    args: Vec<HostValue>,
    want: Vec<f64>,
    tol: f64,
}

/// The language layer's probe: one round interprets the shipped
/// `jacobi`, `tri`, `adi` and `spmv` listings on small grids, where
/// parsing, the tree walk and the interpreter's inspector cost more than
/// the machine. It is not a timed workload: its wall time follows the
/// host's load too closely to hold a bound (see the README).
pub struct Kf1 {
    cases: Vec<Case>,
    jacobi_np: usize,
    jacobi_sweeps: usize,
}

fn arr(data: Vec<f64>, bounds: Vec<(i64, i64)>) -> HostValue {
    HostValue::Array { data, bounds }
}

impl Kf1 {
    pub fn new(seed: u64, size: Size) -> Self {
        let (jnp, jit, tn, anp, ait, sn, sit) = match size {
            Size::Full => (16usize, 10usize, 64usize, 8usize, 2usize, 64usize, 4usize),
            Size::Small => (8, 3, 16, 8, 1, 16, 2),
        };
        let mut rng = Rng::new(seed);
        let mut seq: Vec<Box<dyn Fn() -> Vec<f64>>> = Vec::new();

        // Listing 3: Jacobi.
        let jw = jnp + 1;
        let jf = Arc::new(random_interior(jnp, jnp, &mut rng.fork(), 1e-2));
        let jf2 = Arc::clone(&jf);
        seq.push(Box::new(move || {
            let mut x = Grid2::zeros(jnp, jnp);
            for _ in 0..jit {
                jacobi_seq_step(&mut x, &jf2);
            }
            x.v
        }));
        let jb = vec![(0, jnp as i64), (0, jnp as i64)];
        let jacobi = Case {
            listing: "jacobi",
            entry: "jacobi",
            dims: vec![1, NPROCS],
            args: vec![
                arr(vec![0.0; jw * jw], jb.clone()),
                arr(jf.v.clone(), jb),
                HostValue::Int(jnp as i64),
                HostValue::Int(jit as i64),
            ],
            want: Vec::new(),
            tol: 1e-12,
        };

        // Listings 4+5: the substructured tridiagonal solve.
        let sys = TriDiag::random_dd(tn, rng.next_u64());
        let xt: Vec<f64> = (0..tn).map(|_| rng.unit() - 0.5).collect();
        let tf = sys.apply(&xt);
        let (tb, ta, tc, tf2) = (sys.b.clone(), sys.a.clone(), sys.c.clone(), tf.clone());
        seq.push(Box::new(move || thomas(&tb, &ta, &tc, &tf2)));
        let b1 = vec![(1, tn as i64)];
        let tri = Case {
            listing: "tri",
            entry: "tri",
            dims: vec![NPROCS],
            args: vec![
                arr(vec![0.0; tn], b1.clone()),
                arr(tf, b1.clone()),
                arr(sys.b.clone(), b1.clone()),
                arr(sys.a.clone(), b1.clone()),
                arr(sys.c.clone(), b1),
                HostValue::Int(tn as i64),
            ],
            want: Vec::new(),
            tol: 1e-9,
        };

        // Listings 7+8: ADI.
        let aw = anp + 1;
        let pde = Pde::poisson();
        let af = Arc::new(apply2(
            &pde,
            &random_interior(anp, anp, &mut rng.fork(), 1.0),
        ));
        let rho = suggested_rho(&pde, anp, anp);
        let af2 = Arc::clone(&af);
        seq.push(Box::new(move || {
            let mut u = Grid2::zeros(anp, anp);
            for _ in 0..ait {
                adi_seq_iteration(&pde, rho, &mut u, &af2);
            }
            u.v
        }));
        let ab = vec![(0, anp as i64), (0, anp as i64)];
        let adi = Case {
            listing: "adi",
            entry: "adi",
            dims: vec![1, NPROCS],
            args: vec![
                arr(vec![0.0; aw * aw], ab.clone()),
                arr(af.v.clone(), ab.clone()),
                arr(vec![0.0; aw * aw], ab),
                HostValue::Int(anp as i64),
                HostValue::Real(rho),
                HostValue::Int(ait as i64),
                HostValue::Real(1.0),
                HostValue::Real(1.0),
            ],
            want: Vec::new(),
            tol: 1e-8,
        };

        // The irregular listing: iterated CSR SpMV with seeded columns.
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(sn);
        for i in 0..sn {
            let mut cols = vec![i];
            for _ in 0..2 {
                let c = rng.below(sn);
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            cols.sort_unstable();
            rows.push(cols.into_iter().map(|c| (c, rng.unit() + 0.5)).collect());
        }
        let (mut rp, mut ci, mut av) = (vec![1.0], Vec::new(), Vec::new());
        for r in &rows {
            for &(c, v) in r {
                ci.push((c + 1) as f64);
                av.push(v);
            }
            rp.push((ci.len() + 1) as f64);
        }
        let x0: Vec<f64> = (0..sn).map(|_| rng.unit() - 0.5).collect();
        let sx0 = x0.clone();
        seq.push(Box::new(move || {
            let (mut x, mut y) = (sx0.clone(), vec![0.0; sn]);
            for _ in 0..sit {
                for (i, r) in rows.iter().enumerate() {
                    y[i] = r.iter().fold(0.0, |s, &(c, v)| s + v * x[c]);
                }
                for i in 0..sn {
                    x[i] = y[i] / 10.0;
                }
            }
            y
        }));
        let nz = ci.len();
        let spmv = Case {
            listing: "spmv",
            entry: "spmvit",
            dims: vec![NPROCS],
            args: vec![
                arr(vec![0.0; sn], vec![(1, sn as i64)]),
                arr(x0, vec![(1, sn as i64)]),
                arr(rp, vec![(1, sn as i64 + 1)]),
                arr(ci, vec![(1, nz as i64)]),
                arr(av, vec![(1, nz as i64)]),
                HostValue::Int(sn as i64),
                HostValue::Int(nz as i64),
                HostValue::Int(sit as i64),
            ],
            want: Vec::new(),
            tol: 1e-9,
        };

        let mut cases = vec![jacobi, tri, adi, spmv];
        for (c, f) in cases.iter_mut().zip(&seq) {
            c.want = f();
        }
        Kf1 {
            cases,
            jacobi_np: jnp,
            jacobi_sweeps: jit,
        }
    }

    /// One round on `backend`, each answer checked; returns the summed
    /// reports' counters and a checksum over the bits of every answer.
    pub fn round(&self, backend: BackendKind) -> Result<(Counters, u64), String> {
        let mut counters = Counters::default();
        let mut sum = 0xcbf2_9ce4_8422_2325u64;
        for c in &self.cases {
            let src = listing(c.listing).ok_or("listing missing")?;
            let run = run_source(machine(backend).config(), src, c.entry, &c.dims, &c.args)?;
            let scale = c.want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            within(&run.arrays[0].1, &c.want, c.tol * scale, c.listing)?;
            counters = counters + Counters::of_report(&run.report);
            for v in &run.arrays[0].1 {
                sum = (sum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Ok((counters, sum))
    }

    /// The interpreted Jacobi listing's size: `(np, sweeps)`.
    pub fn jacobi_case(&self) -> (usize, usize, &[HostValue]) {
        (self.jacobi_np, self.jacobi_sweeps, &self.cases[0].args)
    }
}

// ---------------------------------------------------------------------

/// A seeded symmetric, strictly diagonally dominant (so SPD) sparse
/// matrix with random off-diagonal columns, and a right-hand side.
pub struct Spd {
    pub n: usize,
    pub rows: Vec<Vec<(usize, f64)>>,
    pub b: Vec<f64>,
}

impl Spd {
    fn new(n: usize, per_row: usize, rng: &mut Rng) -> Self {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for _ in 0..per_row / 2 {
                let j = rng.below(n);
                if j != i && !rows[i].iter().any(|&(c, _)| c == j) {
                    let v = -(0.1 + rng.unit());
                    rows[i].push((j, v));
                    rows[j].push((i, v));
                }
            }
        }
        for (i, r) in rows.iter_mut().enumerate() {
            let d = 1.0 + r.iter().map(|&(_, v)| f64::abs(v)).sum::<f64>();
            r.push((i, d));
            r.sort_by_key(|&(c, _)| c);
        }
        let b = (0..n).map(|_| rng.unit() - 0.5).collect();
        Spd { n, rows, b }
    }
}

/// What one CG solve (two calls around a `distribute`) returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOut {
    pub iterations: usize,
    pub residual: f64,
    pub converged: bool,
}

pub const CG_TOL: f64 = 1e-8;
const CG_FIRST_ITERS: usize = 5;
const CG_MAX_ITERS: usize = 500;

/// One CG solve on `backend`: `cg` for a few iterations, a
/// `SparseCsr::distribute` (one rollback and one re-inspection per
/// worker), then `cg` again to the tolerance.
pub fn cg_solve(
    m: &Spd,
    backend: BackendKind,
    policy: ExecPolicy,
    tr: Option<&Tracer>,
    parent: Option<u64>,
    unit: Option<u64>,
) -> (CgOut, kali::machine::RunReport) {
    let run = machine(backend).run(|proc| {
        let rank = proc.rank();
        let grid = ProcGrid::new_1d(NPROCS);
        let spec = DistSpec::block1();
        let mut a = span(tr, "array.from_rows", rank, parent, unit, |_| {
            SparseCsr::from_rows(rank, &grid, m.n, m.n, |i| m.rows[i].clone())
        });
        let b = DistArray1::from_fn(rank, &grid, &spec, [m.n], [0], |[i]| m.b[i]);
        let mut x = DistArray1::from_fn(rank, &grid, &spec, [m.n], [0], |_| 0.0);
        let mut ctx = Ctx::with_policy(proc, grid, policy);
        let first = span(tr, "solvers.cg", rank, parent, unit, |_| {
            cg(&mut ctx, &a, &b, &mut x, CG_FIRST_ITERS, CG_TOL)
        });
        span(tr, "array.distribute", rank, parent, unit, |_| {
            a.distribute(ctx.proc())
        });
        let rest = span(tr, "solvers.cg", rank, parent, unit, |_| {
            cg(&mut ctx, &a, &b, &mut x, CG_MAX_ITERS, CG_TOL)
        });
        CgOut {
            iterations: first.iterations + rest.iterations,
            residual: rest.residual,
            converged: rest.converged,
        }
    });
    (run.results[0], run.report)
}

/// `schedule_churn`: the sched layer's miss, evict and rollback path. A
/// unit serves a shape-diverse tenant stream once through a halo cache
/// budgeted below the shape count, then solves a fresh sparse SPD
/// system by CG across a mid-solve `distribute`.
pub struct Churn {
    stream: Vec<SolveRequest>,
    budget: usize,
    mats: Vec<Spd>,
    /// Sim answers: serve checksums and each matrix's CG iterations.
    want_sums: Vec<u64>,
    want_iters: Vec<usize>,
    seq_cg_s: f64,
}

/// Distinct CG systems per run; unit `k` solves `mats[k % MATS]`.
const MATS: usize = 8;

/// The seeded inputs of `schedule_churn`: the tenant stream, the halo
/// budget (below its shape count) and the CG systems.
fn churn_inputs(seed: u64, size: Size) -> (Vec<SolveRequest>, usize, Vec<Spd>) {
    let (shapes, tenants, iters, n, per_row) = match size {
        Size::Full => (
            vec![[24, 40], [40, 24], [32, 32], [48, 20]],
            3usize,
            4usize,
            2048usize,
            6usize,
        ),
        Size::Small => (vec![[12, 16], [16, 12]], 2, 2, 64, 4),
    };
    let mut rng = Rng::new(seed);
    // Every run serves the same shapes and work; the seed picks the
    // tenants and the arrival order.
    let mut stream = Vec::new();
    for (k, shape) in shapes.iter().enumerate() {
        for solver in [SolverKind::Jacobi5, SolverKind::Stencil9] {
            let dist = [DistKind::Rows, DistKind::Cols][k % 2];
            for _ in 0..tenants {
                stream.push(SolveRequest {
                    tenant: rng.next_u64() % 1_000_000,
                    shape: *shape,
                    dist,
                    solver,
                    iters,
                    tol: 0.0,
                });
            }
        }
    }
    rng.shuffle(&mut stream);
    let mats = (0..MATS)
        .map(|_| Spd::new(n, per_row, &mut rng.fork()))
        .collect();
    (stream, shapes.len(), mats)
}

impl Spd {
    /// The first CG system of `schedule_churn` at this seed.
    pub fn probe(seed: u64, size: Size) -> Spd {
        churn_inputs(seed, size).2.swap_remove(0)
    }
}

impl Churn {
    /// The tenant stream of `schedule_churn` at this seed.
    pub fn probe_stream(seed: u64, size: Size) -> Vec<SolveRequest> {
        churn_inputs(seed, size).0
    }

    pub fn new(seed: u64, size: Size) -> Self {
        let (stream, budget, mats) = churn_inputs(seed, size);
        let sim = serve(&serve_cfg(BackendKind::Sim, Some(budget), 1), &stream);
        let want_iters = mats
            .iter()
            .map(|m| cg_solve(m, BackendKind::Sim, ExecPolicy::default(), None, None, None).0)
            .map(|o| o.iterations)
            .collect();
        let m0 = &mats[0];
        let seq_cg_s = time_median(3, || {
            let mut x = vec![0.0; m0.n];
            std::hint::black_box(cg_seq(
                m0.n,
                |i| m0.rows[i].clone(),
                &m0.b,
                &mut x,
                CG_MAX_ITERS,
                CG_TOL,
            ));
        });
        Churn {
            stream,
            budget,
            mats,
            want_sums: sim.checksums,
            want_iters,
            seq_cg_s,
        }
    }

    /// One unit; returns the CG part's wall seconds.
    fn unit(
        &self,
        backend: BackendKind,
        k: u64,
        tr: Option<&Tracer>,
        p: Option<u64>,
    ) -> Result<f64, String> {
        let out = span(tr, "serve.serve", HOST_TID, p, Some(k), |_| {
            serve(&serve_cfg(backend, Some(self.budget), 1), &self.stream)
        });
        if out.checksums != self.want_sums {
            return Err("serve checksums differ from the sim run".into());
        }
        let i = k as usize % MATS;
        let t = Instant::now();
        let (cg, _) = span(tr, "machine.run", HOST_TID, p, Some(k), |q| {
            cg_solve(
                &self.mats[i],
                backend,
                ExecPolicy::default(),
                tr,
                q,
                Some(k),
            )
        });
        let dt = t.elapsed().as_secs_f64();
        if !(cg.converged && cg.residual <= CG_TOL) {
            return Err(format!("cg residual {:e} above {CG_TOL:e}", cg.residual));
        }
        if cg.iterations != self.want_iters[i] {
            return Err(format!(
                "cg took {} iterations, the sim run {}",
                cg.iterations, self.want_iters[i]
            ));
        }
        Ok(dt)
    }
}

pub fn serve_cfg(backend: BackendKind, budget: Option<usize>, passes: usize) -> ServeConfig {
    ServeConfig {
        nprocs: NPROCS,
        backend,
        halo_budget: budget,
        passes,
    }
}

impl Workload for Churn {
    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Timed {
        host_loop(budget, tr, |k, p| self.unit(BackendKind::Threads, k, tr, p))
    }

    fn simmed(&self, policy: ExecPolicy) -> Simmed {
        let sv = serve(
            &serve_cfg(BackendKind::Sim, Some(self.budget), 1),
            &self.stream,
        );
        let mut out = Simmed {
            attempted: MATS as u64,
            serve_evictions: sv.passes[0].evictions as f64,
            serve_cache_len: sv.passes[0].cache_len as f64,
            ..Simmed::default()
        };
        if sv.checksums != self.want_sums {
            out.failed = out.attempted;
        }
        let (mut c, mut virt, mut iters) = (Counters::default(), 0.0, 0.0);
        for (m, &want) in self.mats.iter().zip(&self.want_iters) {
            let (o, rep) = cg_solve(m, BackendKind::Sim, policy, None, None, None);
            if !(o.converged && o.residual <= CG_TOL) || o.iterations != want {
                out.failed += 1;
            }
            c = c + Counters::of_report(&rep);
            virt += rep.elapsed;
            iters += o.iterations as f64;
        }
        let k = 1.0 / MATS as f64;
        out.unit_s = sv.report.elapsed + virt * k;
        out.per_unit = Counters::of_report(&sv.report) + c.scale(k);
        out.cg_iters = iters * k;
        out
    }

    fn seq_unit_s(&self) -> f64 {
        self.seq_cg_s
    }

    fn finest(&self) -> GridShape {
        let r = self
            .stream
            .iter()
            .max_by_key(|r| r.shape[0] * r.shape[1])
            .expect("a nonempty stream");
        GridShape {
            grid: ProcGrid::new_1d(NPROCS),
            spec: match r.dist {
                DistKind::Rows => DistSpec::block_local(),
                DistKind::Cols => DistSpec::local_block(),
            },
            extents: r.shape,
            ghosts: match r.solver {
                SolverKind::Jacobi5 => Ghosts::faces(1),
                SolverKind::Stencil9 => Ghosts::full(1),
            },
        }
    }

    fn points_per_unit(&self) -> f64 {
        let stencil: usize = self
            .stream
            .iter()
            .map(|r| (r.shape[0] - 2) * (r.shape[1] - 2) * r.iters)
            .sum();
        let iters = self.want_iters.iter().sum::<usize>() as f64 / MATS as f64;
        stencil as f64 + self.mats[0].n as f64 * iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 11;

    fn answers<W: Session>(w: &W) -> [Vec<f64>; 2] {
        [BackendKind::Sim, BackendKind::Threads].map(|b| {
            run_session(w, b, ExecPolicy::default(), 3, None, 0)
                .expect("session runs")
                .answer
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sim_and_threads_answers_are_bitwise_identical() {
        let [s, t] = answers(&Mg2::new(SEED, Size::Small));
        assert_eq!(bits(&s), bits(&t), "mg2");
        let [s, t] = answers(&Jacobi::new(SEED, Size::Small));
        assert_eq!(bits(&s), bits(&t), "jacobi");

        let k = Kf1::new(SEED, Size::Small);
        let sum = |b| k.round(b).expect("round").1;
        assert_eq!(
            sum(BackendKind::Sim),
            sum(BackendKind::Threads),
            "kf1 listings"
        );

        let (stream, budget, mats) = churn_inputs(SEED, Size::Small);
        let sums = |b| serve(&serve_cfg(b, Some(budget), 1), &stream).checksums;
        assert_eq!(sums(BackendKind::Sim), sums(BackendKind::Threads), "serve");
        let solve = |b| cg_solve(&mats[0], b, ExecPolicy::default(), None, None, None).0;
        let (s, t) = (solve(BackendKind::Sim), solve(BackendKind::Threads));
        assert_eq!(s.iterations, t.iterations, "cg iterations");
        assert_eq!(s.residual.to_bits(), t.residual.to_bits(), "cg residual");
    }

    #[test]
    fn mg2_warm_units_never_build_or_roll_back() {
        let sim = Mg2::new(SEED, Size::Small).simmed(ExecPolicy::default());
        assert_eq!(sim.failed, 0);
        assert_eq!(sim.per_unit.builds, 0.0);
        assert_eq!(sim.per_unit.rollbacks, 0.0);
        assert!(sim.per_unit.hits > 0.0, "warm exchanges are cache hits");
    }

    #[test]
    fn churn_rolls_back_once_per_worker_per_distribute_and_evicts() {
        let m = Spd::probe(SEED, Size::Small);
        let (out, rep) = cg_solve(
            &m,
            BackendKind::Sim,
            ExecPolicy::default(),
            None,
            None,
            None,
        );
        assert!(out.converged && out.residual <= CG_TOL);
        assert_eq!(rep.total_rollbacks, NPROCS as u64, "one per worker");
        assert_eq!(
            rep.total_inspector_runs,
            2 * NPROCS as u64,
            "one per worker per generation"
        );

        let sim = Churn::new(SEED, Size::Small).simmed(ExecPolicy::default());
        assert_eq!(sim.failed, 0);
        assert!(
            sim.serve_evictions > 0.0,
            "the budget is below the shape count"
        );
        assert!(sim.per_unit.rollbacks >= NPROCS as f64);
    }

    #[test]
    fn a_wrong_answer_fails_every_unit_it_covers() {
        let mut w = Mg2::new(SEED, Size::Small);
        w.want[w.n + 2] += 1e-6;
        let t = w.timed(Duration::ZERO, None);
        assert!(t.attempted > 0);
        assert_eq!(t.failed, t.attempted);
        assert!(t.blocks.is_empty());
    }
}
