//! Grid transfer operators: residuals, semicoarsening restriction and
//! interpolation (`resid2/3`, `rest2/3`, `intrp2/3` of Listings 9–11).
//!
//! Restriction and interpolation move whole lines (2-D) or planes (3-D)
//! between the fine and coarse block distributions. Because fine index
//! `2j` and coarse index `j` may be owned by *different* processors for
//! general block splits, the transfers are **ownership-routed**: each
//! processor computes the stencil on the data it owns (reading only ±1
//! ghost layers) and routes finished lines/planes to their owners under the
//! destination distribution with one personalized all-to-all. This is the
//! communication a KF1 compiler would synthesize for the assignments in
//! Listing 10, generalized to any block alignment.
//!
//! The 2-D transfers touch memory a whole x-line at a time: x is
//! undistributed, so each line is read with [`DistArray2::col_into`] and
//! written with [`DistArray2::col_set`] after one ownership check, not
//! through per-point `at`/`put` index decoding. The arithmetic per point
//! is the same expression in the same order as the sequential reference
//! (`seq::rest2_seq`, `seq::intrp2_seq`), so results match it bitwise.

use std::collections::HashMap;

use kali_array::{DistArray2, DistArray3, Real};
use kali_machine::{collective, Proc, Team};
use kali_runtime::{Ctx, Ghosts};

use crate::Pde;

/// Route `(destination team index, key, payload)` items and return what
/// arrived here. Every team member must call (it is a collective).
pub fn route(
    proc: &mut Proc,
    team: &Team,
    items: Vec<(usize, u64, Vec<f64>)>,
) -> Vec<(u64, Vec<f64>)> {
    let q = team.len();
    let mut sends: Vec<Vec<(u64, Vec<f64>)>> = vec![Vec::new(); q];
    for (d, k, v) in items {
        sends[d].push((k, v));
    }
    let recvd = collective::alltoallv(proc, team, sends);
    recvd.into_iter().flatten().collect()
}

/// Distributed residual `r = f − L u` for 2-D arrays (any block layout
/// with ghosts ≥ 1 on distributed dimensions), generic over the element
/// type. The 5-point read of `u` is declared to the stencil plan
/// ([`Ghosts::faces`]); under a split policy the operator is evaluated on
/// the block interior while the edge strips travel, then on the boundary
/// frame once they land. Under [`ExecPolicy::rows`] (the default) the
/// body consumes whole contiguous rows as slices — the autovectorizable
/// form ADI and mg2 inherit, bitwise identical to the per-point baseline
/// (`ExecPolicy::point_form()`).
///
/// [`ExecPolicy::rows`]: kali_runtime::ExecPolicy::rows
pub fn resid2<T: Real>(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray2<T>,
    f: &DistArray2<T>,
) -> DistArray2<T> {
    let [nxp, nyp] = u.extents();
    let (nx, ny) = (nxp - 1, nyp - 1);
    let (ax, ay, ad) = pde.stencil2(nx, ny);
    let (ax, ay, ad) = (T::from_f64(ax), T::from_f64(ay), T::from_f64(ad));
    let mut r = u.like();
    let rows = ctx.policy().rows;
    let plan = ctx.plan().reads(u, Ghosts::faces(1));
    if rows {
        plan.run2_rows(1..nx, 1..ny, 8.0, |_, u, i, js| {
            let dn = u.row(i - 1, js.clone());
            let up = u.row(i + 1, js.clone());
            let lf = u.row(i, js.start - 1..js.end - 1);
            let rt = u.row(i, js.start + 1..js.end + 1);
            let mid = u.row(i, js.clone());
            let fr = f.row(i, js.clone());
            let dst = r.row_mut(i, js);
            for k in 0..dst.len() {
                let lu = ax * (dn[k] + up[k]) + ay * (lf[k] + rt[k]) + ad * mid[k];
                dst[k] = fr[k] - lu;
            }
        });
    } else {
        plan.run2(1..nx, 1..ny, 8.0, |_, u, i, j| {
            let lu = ax * (u.at(i - 1, j) + u.at(i + 1, j))
                + ay * (u.at(i, j - 1) + u.at(i, j + 1))
                + ad * u.at(i, j);
            r.put(i, j, f.at(i, j) - lu);
        });
    }
    r
}

/// Full-weight fine line `j` of `r` into a freshly allocated line, reading
/// the three x-lines `j−1..=j+1` whole; `nb` is scratch for two of them.
fn weigh_line(ctx: &mut Ctx, r: &DistArray2<f64>, j: usize, nb: &mut [f64]) -> Vec<f64> {
    let nx = r.extents()[0] - 1;
    let mut line = vec![0.0; nx + 1];
    let (mid, up) = nb.split_at_mut(nx - 1);
    r.col_into(j - 1, 1..nx, &mut line[1..nx]);
    r.col_into(j, 1..nx, mid);
    r.col_into(j + 1, 1..nx, up);
    for (l, (&m, &u)) in line[1..nx].iter_mut().zip(mid.iter().zip(up.iter())) {
        *l = 0.25 * *l + 0.5 * m + 0.25 * u;
    }
    ctx.proc().compute(5.0 * (nx - 1) as f64);
    line
}

/// Distributed 2-D restriction with y-semicoarsening (full weighting) for
/// `dist (*, block)` arrays on a 1-D team. Returns the coarse right-hand
/// side with extents `(nx+1, ny/2+1)`. The full-weighting stencil's
/// corner-reading, width-1 access to `r` is declared to the stencil plan
/// ([`Ghosts::full`]); under a split policy the owned fine lines whose
/// ±1 neighbours are also owned are full-weighted while the ghost lines
/// travel, and only the block-edge lines wait for completion.
pub fn rest2(ctx: &mut Ctx, r: &mut DistArray2<f64>) -> DistArray2<f64> {
    let [nxp, nyp] = r.extents();
    let ny = nyp - 1;
    let nyc = ny / 2;
    let mut g = r.with_extents([nxp, nyc + 1]);
    let team = ctx.team();
    let cdist = g.dist(1);

    // Full-weight the fine-even lines we own, keyed by coarse index.
    // Only the fine-even lines j = 2·jc, jc in 1..nyc, restrict.
    let mut items = Vec::new();
    let mut nb = vec![0.0; 2 * nxp.saturating_sub(2)];
    ctx.plan().reads(r, Ghosts::full(1)).run_lines(
        1,
        2..(2 * nyc).saturating_sub(1),
        |ctx, r, j| {
            if j.is_multiple_of(2) {
                let line = weigh_line(ctx, r, j, &mut nb);
                items.push((cdist.owner(j / 2), (j / 2) as u64, line));
            }
        },
    );
    // x is undistributed, so a coarse line is owned whole or not at all.
    for (jc, line) in route(ctx.proc(), &team, items) {
        let jc = jc as usize;
        if g.owns([0, jc]) {
            g.col_set(jc, 0..nxp, &line);
        }
        ctx.proc().memop(line.len() as f64);
    }
    g
}

/// Distributed 2-D interpolation-and-correct for y-semicoarsening
/// (Listing 10's 2-D analogue): even fine lines add the coarse value, odd
/// lines the average of the two neighbouring coarse lines.
pub fn intrp2(ctx: &mut Ctx, u: &mut DistArray2<f64>, v: &DistArray2<f64>) {
    let [nxp, nyp] = u.extents();
    let nx = nxp - 1;
    let ny = nyp - 1;
    let nyc = v.extents()[1] - 1;
    assert_eq!(nyc * 2, ny, "dimensions do not match in intrp2");
    let team = ctx.team();
    let fine_dist = u.dist(1);

    // Send every owned coarse line to the owners of the fine lines that
    // read it (2jc−1, 2jc, 2jc+1).
    let mut items = Vec::new();
    if v.is_participant() {
        for jc in v.owned_range(1).clone() {
            let mut line = vec![0.0; nxp];
            v.col_into(jc, 0..nxp, &mut line);
            let lo = (2 * jc).saturating_sub(1);
            let hi = (2 * jc + 1).min(ny);
            let mut dests: Vec<usize> = (lo..=hi).map(|j| fine_dist.owner(j)).collect();
            dests.dedup();
            for dest in dests {
                items.push((dest, jc as u64, line.clone()));
            }
        }
    }
    let mut coarse: HashMap<usize, Vec<f64>> = HashMap::new();
    for (jc, line) in route(ctx.proc(), &team, items) {
        coarse.insert(jc as usize, line);
    }
    if !u.is_participant() {
        return;
    }
    let j0 = u.owned_range(1).start.max(1);
    let j1 = u.owned_range(1).end.min(ny);
    let zero = vec![0.0; nxp];
    let mut col = vec![0.0; nx.saturating_sub(1)];
    for j in j0..j1 {
        let (la, lb, w) = if j.is_multiple_of(2) {
            (j / 2, j / 2, 1.0)
        } else {
            ((j - 1) / 2, j.div_ceil(2), 0.5)
        };
        let va = &coarse.get(&la).unwrap_or(&zero)[1..nx];
        let vb = &coarse.get(&lb).unwrap_or(&zero)[1..nx];
        u.col_into(j, 1..nx, &mut col);
        for (c, (&a, &b)) in col.iter_mut().zip(va.iter().zip(vb)) {
            *c += if la == lb { a } else { w * (a + b) };
        }
        u.col_set(j, 1..nx, &col);
        ctx.proc().compute(2.0 * (nx - 1) as f64);
    }
}

/// Distributed 3-D residual `r = f − L u` for `dist (*, block, block)`
/// arrays with ghosts ≥ 1 on the distributed dimensions. The 7-point
/// read of `u` is declared to the stencil plan, which refreshes the
/// skirt under the context's policy.
pub fn resid3(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray3<f64>,
    f: &DistArray3<f64>,
) -> DistArray3<f64> {
    let [nxp, nyp, nzp] = u.extents();
    let (nx, ny, nz) = (nxp - 1, nyp - 1, nzp - 1);
    let (ax, ay, az, ad) = pde.stencil3(nx, ny, nz);
    ctx.plan().reads(u, Ghosts::faces(1)).refresh();
    let proc = ctx.proc();
    let mut r = u.like();
    if !u.is_participant() {
        return r;
    }
    let j0 = u.owned_range(1).start.max(1);
    let j1 = u.owned_range(1).end.min(ny);
    let k0 = u.owned_range(2).start.max(1);
    let k1 = u.owned_range(2).end.min(nz);
    for i in 1..nx {
        for j in j0..j1 {
            for k in k0..k1 {
                let lu = ax * (u.at(i - 1, j, k) + u.at(i + 1, j, k))
                    + ay * (u.at(i, j - 1, k) + u.at(i, j + 1, k))
                    + az * (u.at(i, j, k - 1) + u.at(i, j, k + 1))
                    + ad * u.at(i, j, k);
                r.put(i, j, k, f.at(i, j, k) - lu);
            }
        }
    }
    proc.compute(11.0 * ((nx - 1) * j1.saturating_sub(j0) * k1.saturating_sub(k0)) as f64);
    r
}

/// One processor's (x × owned-y) patch of plane `k`, flattened x-major.
/// Interior x only; boundary slots are zero.
fn pack_patch(r: &DistArray3<f64>, k: usize, weighted: bool) -> Vec<f64> {
    let [nxp, _, _] = r.extents();
    let jr = r.owned_range(1);
    let mut patch = vec![0.0; nxp * jr.len()];
    for i in 1..nxp - 1 {
        for (jj, j) in jr.clone().enumerate() {
            let v = if weighted {
                0.25 * r.at(i, j, k - 1) + 0.5 * r.at(i, j, k) + 0.25 * r.at(i, j, k + 1)
            } else {
                r.at(i, j, k)
            };
            patch[i * jr.len() + jj] = v;
        }
    }
    patch
}

/// Distributed 3-D restriction with z-semicoarsening (full weighting) for
/// `dist (*, block, block)` arrays on a 2-D grid. `r`'s ghosts are
/// refreshed through the stencil plan (faces only — the z-weighting
/// reads no diagonal ghost).
pub fn rest3(ctx: &mut Ctx, r: &mut DistArray3<f64>) -> DistArray3<f64> {
    let [nxp, nyp, nzp] = r.extents();
    let nz = nzp - 1;
    let nzc = nz / 2;
    ctx.plan().reads(r, Ghosts::faces(1)).refresh();
    let mut g = r.with_extents([nxp, nyp, nzc + 1]);
    // Route within my z-team (fixed y coordinate, varying z coordinate).
    let grid = ctx.grid().clone();
    let my_y = ctx.coords().map(|c| c[0]);
    let Some(qy) = my_y else {
        return g;
    };
    let zteam_grid = grid.slice(0, qy);
    let zteam = zteam_grid.team();
    let mut items = Vec::new();
    if r.is_participant() {
        for kc in 1..nzc {
            let k = 2 * kc;
            if r.owned_range(2).contains(&k) {
                let patch = pack_patch(r, k, true);
                ctx.proc()
                    .compute(5.0 * ((nxp - 2) * r.owned_range(1).len()) as f64);
                let dest = g.dist(2).owner(kc);
                items.push((dest, kc as u64, patch));
            }
        }
    }
    let jr = g.owned_range(1);
    for (kc, patch) in route(ctx.proc(), &zteam, items) {
        let kc = kc as usize;
        for i in 1..nxp - 1 {
            for (jj, j) in jr.clone().enumerate() {
                if g.owns([i, j, kc]) {
                    g.put(i, j, kc, patch[i * jr.len() + jj]);
                }
            }
        }
        ctx.proc().memop(patch.len() as f64);
    }
    g
}

/// Listing 10, distributed: interpolate the coarse correction `v` (half the
/// z-planes) onto `u` and add. Even fine planes take the coarse plane;
/// odd planes average the two neighbours.
pub fn intrp3(ctx: &mut Ctx, u: &mut DistArray3<f64>, v: &DistArray3<f64>) {
    let [nxp, _nyp, nzp] = u.extents();
    let nx = nxp - 1;
    let nz = nzp - 1;
    let nzc = v.extents()[2] - 1;
    assert_eq!(nzc * 2, nz, "Dimensions do not match in intrp3");
    let grid = ctx.grid().clone();
    let Some(coords) = ctx.coords().map(|c| c.to_vec()) else {
        return;
    };
    let zteam_grid = grid.slice(0, coords[0]);
    let zteam = zteam_grid.team();
    let fine_zdist = u.dist(2);

    let mut items = Vec::new();
    if v.is_participant() {
        for kc in v.owned_range(2).clone() {
            let patch = pack_patch(v, kc, false);
            let lo = (2 * kc).saturating_sub(1);
            let hi = (2 * kc + 1).min(nz);
            let mut dests: Vec<usize> = (lo..=hi).map(|k| fine_zdist.owner(k)).collect();
            dests.dedup();
            for dest in dests {
                items.push((dest, kc as u64, patch.clone()));
            }
        }
    }
    let mut coarse: HashMap<usize, Vec<f64>> = HashMap::new();
    for (kc, patch) in route(ctx.proc(), &zteam, items) {
        coarse.insert(kc as usize, patch);
    }
    if !u.is_participant() {
        return;
    }
    let jr = u.owned_range(1);
    let k0 = u.owned_range(2).start.max(1);
    let k1 = u.owned_range(2).end.min(nz);
    let zero = vec![0.0; nxp * jr.len()];
    for k in k0..k1 {
        let (la, lb) = if k % 2 == 0 {
            (k / 2, k / 2)
        } else {
            ((k - 1) / 2, k.div_ceil(2))
        };
        let pa = coarse.get(&la).unwrap_or(&zero);
        let pb = coarse.get(&lb).unwrap_or(&zero);
        for i in 1..nx {
            for (jj, j) in jr.clone().enumerate() {
                let corr = if la == lb {
                    pa[i * jr.len() + jj]
                } else {
                    0.5 * (pa[i * jr.len() + jj] + pb[i * jr.len() + jj])
                };
                u.put(i, j, k, u.at(i, j, k) + corr);
            }
        }
        ctx.proc().compute(2.0 * ((nx - 1) * jr.len()) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(20))
    }

    #[test]
    fn route_delivers_keyed_payloads() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(3);
            let me = proc.rank();
            // Everyone sends one row to proc (me+1)%3.
            let items = vec![((me + 1) % 3, me as u64 * 10, vec![me as f64; 4])];
            route(proc, &team, items)
        });
        for r in 0..3 {
            let got = &run.results[r];
            assert_eq!(got.len(), 1);
            let src = (r + 2) % 3;
            assert_eq!(got[0].0, src as u64 * 10);
            assert_eq!(got[0].1, vec![src as f64; 4]);
        }
    }

    #[test]
    fn resid2_matches_sequential() {
        let pde = Pde::poisson();
        let (nx, ny) = (12, 16);
        let us = seq::Grid2::random_interior(nx, ny, 5);
        let fs = seq::Grid2::random_interior(nx, ny, 6);
        let r_seq = seq::resid2_seq(&pde, &us, &fs);
        let (us2, fs2) = (us.clone(), fs.clone());
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [1, 1],
                |[i, j]| us2.at(i, j),
            );
            let f = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [1, 1],
                |[i, j]| fs2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            let r = resid2(&mut ctx, &pde, &mut u, &f);
            r.gather_to_root(ctx.proc())
        });
        let got = run.results[0].as_ref().unwrap();
        for i in 0..=nx {
            for j in 0..=ny {
                let want = r_seq.at(i, j);
                let have = got[i * (ny + 1) + j];
                assert!((want - have).abs() < 1e-12, "({i},{j}): {have} vs {want}");
            }
        }
    }

    /// Checks `rest2` (`rest = true`) or `intrp2` bitwise against its
    /// sequential form on p = 1..=6 ranks. Coarse and fine block edges fall
    /// on different ranks, so lines are routed: interpolated ones for every
    /// p ≥ 2, restricted ones on 9×16 at p = 5 and on 16×32 at p = 3, 5, 6.
    fn transfer_matches_sequential_bitwise(rest: bool) {
        for (nx, ny) in [(9, 16), (16, 32)] {
            let rs = seq::Grid2::random_interior(nx, ny, 7);
            let vs = seq::Grid2::random_interior(nx, ny / 2, 9);
            let base = seq::Grid2::random_interior(nx, ny, 10);
            let want = if rest {
                seq::rest2_seq(&rs)
            } else {
                let mut u = base.clone();
                seq::intrp2_seq(&mut u, &vs);
                u
            };
            for p in 1..=6 {
                let (rs2, vs2, base2) = (rs.clone(), vs.clone(), base.clone());
                let run = Machine::run(cfg(p), move |proc| {
                    let grid = ProcGrid::new_1d(proc.nprocs());
                    let (rank, spec) = (proc.rank(), DistSpec::local_block());
                    let arr = |s: &seq::Grid2| {
                        let ext = [s.nx + 1, s.ny + 1];
                        DistArray2::from_fn(rank, &grid, &spec, ext, [0, 1], |[i, j]| s.at(i, j))
                    };
                    let mut ctx = Ctx::new(proc, grid.clone());
                    let got = if rest {
                        rest2(&mut ctx, &mut arr(&rs2))
                    } else {
                        let mut u = arr(&base2);
                        intrp2(&mut ctx, &mut u, &arr(&vs2));
                        u
                    };
                    got.gather_to_root(ctx.proc())
                });
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let op = if rest { "rest2" } else { "intrp2" };
                assert_eq!(
                    bits(run.results[0].as_ref().unwrap()),
                    bits(&want.v),
                    "{op} {nx}x{ny} p={p}"
                );
            }
        }
    }

    #[test]
    fn rest2_matches_sequential_various_teams() {
        transfer_matches_sequential_bitwise(true);
    }

    #[test]
    fn intrp2_matches_sequential_various_teams() {
        transfer_matches_sequential_bitwise(false);
    }

    #[test]
    fn resid3_rest3_intrp3_match_sequential() {
        let pde = Pde::poisson();
        let (nx, ny, nz) = (6, 8, 8);
        let us = seq::Grid3::random_interior(nx, ny, nz, 11);
        let fs = seq::Grid3::random_interior(nx, ny, nz, 12);
        let r_seq = seq::resid3_seq(&pde, &us, &fs);
        let g_seq = seq::rest3_seq(&r_seq);
        let vs = seq::Grid3::random_interior(nx, ny, nz / 2, 13);
        let mut u_want = us.clone();
        seq::intrp3_seq(&mut u_want, &vs);

        for (p0, p1) in [(1usize, 1usize), (2, 2), (1, 4), (4, 1)] {
            let (us2, fs2, vs2) = (us.clone(), fs.clone(), vs.clone());
            let run = Machine::run(cfg(p0 * p1), move |proc| {
                let grid = ProcGrid::new_2d(p0, p1);
                let spec = DistSpec::local_block_block();
                let mut u = DistArray3::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1, nz + 1],
                    [0, 1, 1],
                    |[i, j, k]| us2.at(i, j, k),
                );
                let f = DistArray3::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1, nz + 1],
                    [0, 1, 1],
                    |[i, j, k]| fs2.at(i, j, k),
                );
                let mut ctx = Ctx::new(proc, grid);
                let r0 = resid3(&mut ctx, &pde, &mut u, &f);
                let mut r = r0;
                let g = rest3(&mut ctx, &mut r);
                let v = DistArray3::from_fn(
                    ctx.rank(),
                    ctx.grid(),
                    &spec,
                    [nx + 1, ny + 1, nz / 2 + 1],
                    [0, 1, 1],
                    |[i, j, k]| vs2.at(i, j, k),
                );
                intrp3(&mut ctx, &mut u, &v);
                let gg = g.gather_to_root(ctx.proc());
                let ug = u.gather_to_root(ctx.proc());
                (gg, ug)
            });
            let (gg, ug) = &run.results[0];
            let gg = gg.as_ref().unwrap();
            let ug = ug.as_ref().unwrap();
            let nzc = nz / 2;
            for i in 0..=nx {
                for j in 0..=ny {
                    for kc in 0..=nzc {
                        let have = gg[(i * (ny + 1) + j) * (nzc + 1) + kc];
                        assert!(
                            (g_seq.at(i, j, kc) - have).abs() < 1e-12,
                            "rest3 p=({p0},{p1}) ({i},{j},{kc})"
                        );
                    }
                    for k in 0..=nz {
                        let have = ug[(i * (ny + 1) + j) * (nz + 1) + k];
                        assert!(
                            (u_want.at(i, j, k) - have).abs() < 1e-12,
                            "intrp3 p=({p0},{p1}) ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }
}
