//! Layer probes: small standalone calls into one layer at a time, run on
//! both backends where the virtual clock means something. Each returns
//! seconds (wall on threads, virtual on sim).

use std::time::Instant;

use kali::array::{DistArray1, DistArray2, SparseCsr};
use kali::grid::{DistSpec, ProcGrid};
use kali::lang::{analyze, listing, parse, run_source, HostValue};
use kali::machine::{tag, BackendKind, NS_USER};
use kali::runtime::{Ctx, ExecPolicy};
use kali::serve::{serve, SolveRequest};
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::spmv::spmv;

use crate::stats::median;
use crate::workloads::{machine, serve_cfg, time_median, GridShape, Spd, NPROCS};

const PING: u64 = tag(NS_USER, 0xbe);

/// `reps` timed calls of `op` on every rank after `warm` untimed ones;
/// returns per-call seconds of the slowest rank.
fn per_call<S>(
    backend: BackendKind,
    grid: ProcGrid,
    policy: ExecPolicy,
    warm: usize,
    reps: usize,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut Ctx, &mut S) + Sync,
) -> Vec<f64> {
    let run = machine(backend).run(|proc| {
        let mut st = init(proc.rank());
        let mut ctx = Ctx::with_policy(proc, grid.clone(), policy);
        for _ in 0..warm {
            op(&mut ctx, &mut st);
        }
        (0..reps)
            .map(|_| {
                let (v, t) = (ctx.proc().clock(), Instant::now());
                op(&mut ctx, &mut st);
                match backend {
                    BackendKind::Sim => ctx.proc().clock() - v,
                    BackendKind::Threads => t.elapsed().as_secs_f64(),
                }
            })
            .collect::<Vec<f64>>()
    });
    (0..reps)
        .map(|k| run.results.iter().map(|r| r[k]).fold(0.0, f64::max))
        .collect()
}

/// Median round trip of a `words`-word message between two ranks.
pub fn pingpong(backend: BackendKind, words: usize, reps: usize) -> f64 {
    let calls = per_call(
        backend,
        ProcGrid::new_1d(NPROCS),
        ExecPolicy::default(),
        3,
        reps,
        |_| vec![1.0f64; words],
        |ctx, buf| {
            let p = ctx.proc();
            if p.rank() == 0 {
                p.send(1, PING, std::mem::take(buf));
                *buf = p.recv(1, PING);
            } else {
                let v: Vec<f64> = p.recv(0, PING);
                p.send(0, PING, v);
            }
        },
    );
    median(&calls)
}

/// Median two-rank `allreduce_sum`.
pub fn allreduce(backend: BackendKind, reps: usize) -> f64 {
    let calls = per_call(
        backend,
        ProcGrid::new_1d(NPROCS),
        ExecPolicy::default(),
        3,
        reps,
        |_| (),
        |ctx, _| {
            std::hint::black_box(ctx.allreduce_sum(1.0));
        },
    );
    median(&calls)
}

/// Median wall time of an empty two-processor `Machine::run`.
pub fn spawn(reps: usize) -> f64 {
    time_median(reps, || {
        machine(BackendKind::Threads).run(|p| p.rank());
    })
}

fn field(shape: &GridShape, rank: usize) -> DistArray2<f64> {
    DistArray2::from_fn(
        rank,
        &shape.grid,
        &shape.spec,
        shape.extents,
        [1, 1],
        |[i, j]| ((i * 7 + j * 3) % 11) as f64 / 11.0,
    )
}

/// Median standalone halo refresh of the grid (after the cold build).
pub fn halo_refresh(backend: BackendKind, shape: &GridShape, reps: usize) -> f64 {
    let ghosts = shape.ghosts;
    let calls = per_call(
        backend,
        shape.grid.clone(),
        ExecPolicy::default(),
        1,
        reps,
        |rank| field(shape, rank),
        |ctx, a| ctx.plan().reads(a, ghosts).refresh(),
    );
    median(&calls)
}

/// Median Jacobi sweep on the grid in point form over row form.
pub fn rows_over_point(shape: &GridShape, reps: usize) -> f64 {
    let sweep = |policy: ExecPolicy| {
        let calls = per_call(
            BackendKind::Threads,
            shape.grid.clone(),
            policy,
            1,
            reps,
            |rank| (field(shape, rank), field(shape, rank)),
            |ctx, (u, f)| jacobi_step::<f64>(ctx, u, f),
        );
        median(&calls)
    };
    let rows = sweep(ExecPolicy::default());
    sweep(ExecPolicy::default().point_form()) / rows
}

/// Cold (first, inspecting) and median warm SpMV on the matrix.
pub fn spmv_cold_warm(backend: BackendKind, m: &Spd, reps: usize) -> (f64, f64) {
    let calls = per_call(
        backend,
        ProcGrid::new_1d(NPROCS),
        ExecPolicy::default(),
        0,
        reps + 1,
        |rank| {
            let grid = ProcGrid::new_1d(NPROCS);
            let spec = DistSpec::block1();
            let a = SparseCsr::from_rows(rank, &grid, m.n, m.n, |i| m.rows[i].clone());
            let x = DistArray1::from_fn(rank, &grid, &spec, [m.n], [0], |[i]| m.b[i]);
            let y = x.like();
            (a, x, y)
        },
        |ctx, (a, x, y)| spmv(ctx, a, x, y),
    );
    (calls[0], median(&calls[1..]))
}

/// Median parse and analyze seconds of one pass over the four listings.
pub fn parse_analyze(reps: usize) -> (f64, f64) {
    let srcs: Vec<&str> = ["jacobi", "tri", "adi", "spmv"]
        .iter()
        .map(|n| listing(n).expect("shipped listing"))
        .collect();
    let (mut ps, mut an) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut p, mut a) = (0.0, 0.0);
        for src in &srcs {
            let t = Instant::now();
            let prog = parse(src).expect("shipped listings parse");
            p += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let diags = analyze(&prog);
            a += t.elapsed().as_secs_f64();
            assert!(diags.is_empty(), "shipped listings analyze clean");
        }
        ps.push(p);
        an.push(a);
    }
    (median(&ps), median(&an))
}

/// The Jacobi listing interpreted over compiled `jacobi_step` at the
/// same size and sweeps, whole runs: `(wall ratio, virtual ratio)`.
pub fn interp_over_compiled(
    np: usize,
    sweeps: usize,
    args: &[HostValue],
    reps: usize,
) -> (f64, f64) {
    let src = listing("jacobi").expect("shipped listing");
    let HostValue::Array { data: fdata, .. } = &args[1] else {
        panic!("jacobi's second argument is f")
    };
    let interp = |backend| {
        let run = run_source(machine(backend).config(), src, "jacobi", &[1, NPROCS], args)
            .expect("listing runs");
        (run.report.wall_seconds, run.report.elapsed)
    };
    let compiled = |backend| {
        let w = np + 1;
        let run = machine(backend).run(|proc| {
            let grid = ProcGrid::new_2d(1, NPROCS);
            let spec = DistSpec::block2();
            let rank = proc.rank();
            let mut u = DistArray2::<f64>::new(rank, &grid, &spec, [w, w], [1, 1]);
            let f = DistArray2::from_fn(rank, &grid, &spec, [w, w], [0, 0], |[i, j]| {
                fdata[i * w + j]
            });
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..sweeps {
                jacobi_step::<f64>(&mut ctx, &mut u, &f);
            }
        });
        (run.report.wall_seconds, run.report.elapsed)
    };
    let wall = |f: &dyn Fn(BackendKind) -> (f64, f64)| {
        median(
            &(0..reps)
                .map(|_| f(BackendKind::Threads).0)
                .collect::<Vec<_>>(),
        )
    };
    let virt = interp(BackendKind::Sim).1 / compiled(BackendKind::Sim).1;
    (wall(&interp) / wall(&compiled), virt)
}

/// A `passes = 2` serve call: `(cold, warm)` requests per second, the
/// median of `reps` calls.
pub fn serve_two_passes(backend: BackendKind, stream: &[SolveRequest], reps: usize) -> (f64, f64) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let out = serve(&serve_cfg(backend, None, 2), stream);
        cold.push(out.passes[0].requests_per_sec());
        warm.push(out.passes[1].requests_per_sec());
    }
    (median(&cold), median(&warm))
}
