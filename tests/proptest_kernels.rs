//! Property tests pinning the sweep's kernel contract. For every
//! kernel, a cell stepped from its predecessors' lifted values,
//! `step(lift(im1), lift(jm1), lift(diag), lift(km1))`, must be
//! **bitwise** equal to `eval` on the raw values — in the recurrence's
//! domain and off it (negative values, ±0, NaN, ±∞, subnormals; only
//! where `+∞` and `−∞` can meet in one sum does a NaN match any NaN,
//! since which of two payloads a sum propagates is the code generator's
//! choice). And
//! stepping a row of up to [`LANES`] pencils `(i + l, j)` together — one
//! [`LaneBlock`] after another on lifted inputs, lane `l` one cell
//! behind lane `l − 1` and reading its cells as its `i−1` inputs, as the
//! tile sweep runs a row group — must equal that scalar walk of the row:
//! for every row width 1..=`LANES` (the lanes past the last pencil run
//! on padding), every pencil length, and rows cut into tiles of any
//! height, a tile's first block going on from the step before it (its
//! lanes that have not reached the tile rerun the tile below's last
//! cells) and the steps below `k = 0` reading as the seeds. This is the
//! invariant that lets the tile sweep lift each cell once and regroup
//! cells into lane groups without perturbing a single bit of the
//! distributed-vs-sequential verification.
//!
//! The fast tier ([`KernelTier::Fast`]) is *not* bitwise: it may
//! reassociate and drop domain guards. Its property is a ULP bound
//! against the pinned tier on the reachable (non-negative, contractive)
//! domain, plus NaN-freedom.
//!
//! The 2-D kernels read a fourth input, the diagonal `A(i, j−1, k−1)`:
//! a lane gets its first cell's as a seed and the rest off `jm1`. Their
//! rows must equal a per-cell `eval` walk of the strip wherever the
//! sweep takes that seed from.

use proptest::prelude::*;
use stencil::kernel::{
    Alignment2D, Example1, Fused3D, Kernel3D, KernelTier, LaneBlock, LongestPath3D, Paper3D,
    Relax3D, Smooth2D, LANES,
};

/// One row of up to [`LANES`] pencils `(i + l, j)` from `k = 0`, `(i, j)`
/// its `origin`: pencil 0's `i−1` inputs (`corner`), and each pencil's
/// `j−1` inputs (as long as `corner`), `k−1` seed and diagonal seed.
#[derive(Clone, Debug)]
struct Row {
    origin: (i64, i64),
    corner: Vec<f32>,
    pencils: Vec<(Vec<f32>, f32, f32)>,
}

/// The reference: walk each pencil of the row with `eval`, the `k−1`
/// value carried and the diagonal read off `jm1` after the seeded first
/// cell; pencil `l ≥ 1` reads pencil `l − 1`'s cells as its `i−1`
/// inputs.
fn eval_walk<K: Kernel3D>(k: &K, row: &Row) -> Vec<Vec<f32>> {
    let mut outs: Vec<Vec<f32>> = Vec::new();
    for (l, (jm1, km1, diag)) in row.pencils.iter().enumerate() {
        let (i, j) = (row.origin.0 + l as i64, row.origin.1);
        let im1 = outs.last().unwrap_or(&row.corner);
        let (mut prev, mut d) = (*km1, *diag);
        let cells = im1.iter().zip(jm1).zip(0..);
        let eval = |((&a, &c), kz): ((&f32, &f32), i64)| {
            let v = k.eval(i, j, kz, a, c, prev, d);
            (prev, d) = (v, c);
            v
        };
        outs.push(cells.map(eval).collect());
    }
    outs
}

/// The contract cell by cell: walk the row with `step`, every input
/// lifted where it is read — the raw `k−1` value carried, each cell
/// lifted afresh by each reader.
fn lifted_walk<K: Kernel3D>(k: &K, row: &Row) -> Vec<Vec<f32>> {
    let mut outs: Vec<Vec<f32>> = Vec::new();
    for (l, (jm1, km1, diag)) in row.pencils.iter().enumerate() {
        let (i, j) = (row.origin.0 + l as i64, row.origin.1);
        let im1 = outs.last().unwrap_or(&row.corner);
        let (mut prev, mut d) = (*km1, *diag);
        let cells = im1.iter().zip(jm1).zip(0..);
        let step = |((&a, &c), kz): ((&f32, &f32), i64)| {
            let v = k.step(i, j, kz, k.lift(a), k.lift(c), k.lift(d), k.lift(prev));
            (prev, d) = (v, c);
            v
        };
        outs.push(cells.map(step).collect());
    }
    outs
}

/// Step the row through [`LaneBlock::run`] on `tier` in tiles of `v`
/// cells, as the sweep steps a row group: every input lifted once before
/// it enters a block; a tile's first block going on from the lanes'
/// lifted step `len − 1` of the tile before (the seeds before the
/// first); the steps below `k = 0` in a first block, reading as the
/// `k−1` seeds, and a `j−1` input's cell −1 as its diagonal seed. Lanes
/// past the last pencil, and steps outside a lane's tile, run on padding
/// and are not read.
fn wave<K: Kernel3D>(k: &K, tier: KernelTier, row: &Row, v: usize) -> Vec<Vec<f32>> {
    let fast = tier == KernelTier::Fast;
    let lift = |x: f32| if fast { k.lift_fast(x) } else { k.lift(x) };
    let step = |i, j, kz, a, c, d, s| match fast {
        true => k.step_fast(i, j, kz, a, c, d, s),
        false => k.step(i, j, kz, a, c, d, s),
    };
    let len = row.corner.len();
    let at = |x: &[f32], c: i64| {
        lift(
            usize::try_from(c)
                .ok()
                .and_then(|c| x.get(c))
                .map_or(0.25, |&x| x),
        )
    };
    let jm1 = |l: usize, c: i64| match (row.pencils.get(l), c) {
        (Some((_, _, diag)), -1) => lift(*diag),
        (Some((x, _, _)), c) => at(x, c),
        (None, _) => 0.25,
    };
    let mut top: [f32; LANES] =
        core::array::from_fn(|l| lift(row.pencils.get(l).map_or(0.25, |p| p.1)));
    let mut outs = vec![vec![0.0; len]; row.pencils.len()];
    for k0 in (0..len).step_by(v.max(1)) {
        let n = v.min(len - k0);
        let mut blk = LaneBlock {
            km1: top,
            ..LaneBlock::default()
        };
        let mut ups = Vec::new();
        for r in 0..(n + LANES - 1).div_ceil(LANES) {
            let s0 = (k0 + LANES * r) as i64;
            for l in 0..LANES {
                let (i, j) = (row.origin.0 + l as i64, row.origin.1);
                (blk.i[l], blk.j[l], blk.k[l]) = (i, j, s0 - l as i64);
                blk.corner[l] = at(&row.corner, s0 + l as i64);
                for z in 0..LANES {
                    blk.jm1[z][l] = jm1(l, s0 + (z as i64) - l as i64);
                }
                blk.diag[l] = jm1(l, s0 - 1 - l as i64);
            }
            let (out, up) = match r == 0 && k0 < LANES - 1 {
                true => blk.run::<true>(lift, step),
                false => blk.run::<false>(lift, step),
            };
            blk.km1 = up[LANES - 1];
            ups.push(up);
            for (l, o) in outs.iter_mut().enumerate() {
                for (z, cells) in out.iter().enumerate() {
                    let cell = (LANES * r + z).checked_sub(l).filter(|&c| c < n);
                    if let Some(c) = cell {
                        o[k0 + c] = cells[l];
                    }
                }
            }
        }
        top = ups[(n - 1) / LANES][(n - 1) % LANES];
    }
    outs
}

/// Rows of `value()`s from `(1, 2)`: a length, a width and every input
/// drawn independently, so one-pencil rows and lane-block remainders are
/// both routine. A pencil's diagonal seed is half its `k−1` seed:
/// another value of the same domain, so a kernel that mixes them up
/// shows.
fn rows_of<S: Strategy<Value = f32>>(
    value: fn() -> S,
    max_len: usize,
) -> impl Strategy<Value = Row> {
    (0..=max_len, 1..=LANES).prop_flat_map(move |(len, m)| {
        let pencil = (prop::collection::vec(value(), len), value());
        let pencil = pencil.prop_map(|(jm1, km1)| (jm1, km1, km1 * 0.5));
        (
            prop::collection::vec(value(), len),
            prop::collection::vec(pencil, m),
        )
            .prop_map(|(corner, pencils)| Row {
                origin: (1, 2),
                corner,
                pencils,
            })
    })
}

/// Rows on the recurrences' reachable (non-negative) domain.
fn rows(max_len: usize) -> impl Strategy<Value = Row> {
    rows_of(|| 0.0f32..4.0, max_len)
}

/// An `f32` whose edge cases are as frequent as reachable values: one
/// NaN payload and, unless `neg_inf`, no `−∞`, so no sum meets `+∞` and
/// `−∞` and every NaN in flight is that one: its bits cannot depend on
/// operand order.
fn off_domain(neg_inf: bool) -> impl Strategy<Value = f32> {
    (0usize..11, 0.0f32..4.0).prop_map(move |(kind, x)| match kind {
        0 => -x,
        1 => -0.0,
        2 => 0.0,
        3 => f32::NAN,
        4 => f32::INFINITY,
        5 => x * 1e-41, // subnormal
        6 if neg_inf => f32::NEG_INFINITY,
        _ => x,
    })
}

/// Rows off the domain, `−∞` left out.
fn off_domain_rows(max_len: usize) -> impl Strategy<Value = Row> {
    rows_of(|| off_domain(false), max_len)
}

/// Rows off the domain, `−∞` included.
fn opposite_infinity_rows(max_len: usize) -> impl Strategy<Value = Row> {
    rows_of(|| off_domain(true), max_len)
}

/// Walk the row with `eval`, then require bit-for-bit equality of the
/// lifted walk (the contract, cell by cell) and of the row stepped in
/// tiles of `v` on the bitwise tier. Returns the `eval` walk.
fn check_bitwise<K: Kernel3D>(k: K, row: &Row, v: usize) -> Result<Vec<Vec<f32>>, TestCaseError> {
    let pinned = eval_walk(&k, row);
    let lifted = lifted_walk(&k, row);
    let waved = wave(&k, KernelTier::Bitwise, row, v);
    // One licence, for a row that reads `−∞`: a NaN matches a NaN.
    // There a sum can meet `+∞` and `−∞`, and which of two NaN payloads
    // it propagates (a drawn NaN, or the default NaN of `∞ − ∞`) is the
    // code generator's choice, because `fadd` commutes. Every other
    // result, ±0 and ±∞ included, must match bit for bit.
    let inputs = row
        .pencils
        .iter()
        .flat_map(|(c, z, d)| c.iter().chain([z, d]));
    let licence = inputs.chain(&row.corner).any(|&x| x == f32::NEG_INFINITY);
    for (what, got) in [("lifted step", lifted), ("wave", waved)] {
        for (n, (got, want)) in got.iter().zip(&pinned).enumerate() {
            for (z, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits() || (licence && g.is_nan() && w.is_nan()),
                    "pencil {} cell {} (tiles of {}): {} {} != eval {}",
                    n,
                    z,
                    v,
                    what,
                    g,
                    w
                );
            }
        }
    }
    Ok(pinned)
}

/// [`check_bitwise`], then run the fast tier and bound its drift.
fn check_kernel<K: Kernel3D>(k: K, row: &Row, v: usize) -> Result<(), TestCaseError> {
    let pinned = check_bitwise(k, row, v)?;
    // Fast tier: ULP-bounded against pinned on the reachable domain,
    // never NaN. The bound is loose — it catches catastrophic
    // divergence (a dropped guard going NaN, a wrong carry), not
    // rounding; the tier's contract is "close", not "equal".
    let fast = wave(&k, KernelTier::Fast, row, v);
    for (n, (got, want)) in fast.iter().zip(&pinned).enumerate() {
        for (z, (g, w)) in got.iter().zip(want).enumerate() {
            prop_assert!(
                g.is_finite(),
                "pencil {} cell {}: fast tier produced {}",
                n,
                z,
                g
            );
            let ulps = (g.to_bits() as i64 - w.to_bits() as i64).unsigned_abs();
            prop_assert!(
                ulps <= 1024 || (g - w).abs() <= 1e-5,
                "pencil {} cell {}: fast {} vs pinned {} ({} ulps)",
                n,
                z,
                g,
                w,
                ulps
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's √ kernel: its carried `√A(i,j,k−1)` vs the scalar chain.
    #[test]
    fn paper3d_wave_is_bitwise(row in rows(40), v in 1usize..=12) {
        check_kernel(Paper3D, &row, v)?;
    }

    /// Damped relaxation with a random (stable) ω.
    #[test]
    fn relax3d_wave_is_bitwise(row in rows(40), v in 1usize..=12, omega in 0.05f32..1.0) {
        check_kernel(Relax3D { omega }, &row, v)?;
    }

    /// FMA smoothing with random contractive weights (2·wa + wc < 1).
    #[test]
    fn fused3d_wave_is_bitwise(
        row in rows(40),
        v in 1usize..=12,
        wa in 0.01f32..0.45,
        wc in 0.01f32..0.09,
    ) {
        check_kernel(Fused3D { wa, wc }, &row, v)?;
    }

    /// Inputs the recurrences never produce — negative, ±0, NaN, ±∞,
    /// subnormal — must still come out of the lifted step and the wave
    /// exactly as they come out of the `eval` walk, for every kernel:
    /// Paper3D's `max(·, 0)` clamps in its lift, and the NaN/∞
    /// propagation of the others survives the lanes. `row` draws no
    /// `−∞`, so every bit is held; a row of `with_neg_inf` that reads
    /// `−∞` may make another NaN.
    #[test]
    fn off_domain_inputs_stay_bitwise(
        row in off_domain_rows(40),
        with_neg_inf in opposite_infinity_rows(40),
        v in 1usize..=12,
        omega in 0.05f32..1.0,
    ) {
        for row in [&row, &with_neg_inf] {
            check_bitwise(Paper3D, row, v)?;
            check_bitwise(Relax3D { omega }, row, v)?;
            check_bitwise(Fused3D::default(), row, v)?;
            check_bitwise(LongestPath3D, row, v)?;
            check_bitwise(Example1, row, v)?;
            check_bitwise(Alignment2D { alphabet: 2 }, row, v)?;
            check_bitwise(Smooth2D { omega }, row, v)?;
        }
    }

    /// A kernel with *no* step override runs the defaults built from
    /// `eval`, and reads its cell coordinates: each lane must see its
    /// own `(i, j, k)`.
    #[test]
    fn longest_path_wave_is_bitwise(row in rows(24), v in 1usize..=12) {
        check_kernel(LongestPath3D, &row, v)?;
    }

    /// A diagonal kernel's rows equal its per-cell `eval` walk of a
    /// strip for lanes seeded as the block executor seeds them: the
    /// diagonal of a lane's first cell in a tile comes from the
    /// neighbour column's previous tile, the halo column, or at `k = 0`
    /// the boundary.
    #[test]
    fn diagonal_wave_matches_per_cell_eval(
        (by, nz, v) in (1usize..=6, 1usize..=40, 1usize..=12),
        halo in prop::collection::vec(0.0f32..4.0, 40),
        b in 0.0f32..4.0,
        alphabet in 1u32..=4,
    ) {
        let halo = &halo[..nz];
        check_diagonal(Example1, by, halo, v, b)?;
        check_diagonal(Alignment2D { alphabet }, by, halo, v, b)?;
        check_diagonal(Smooth2D::default(), by, halo, v, b)?;
    }
}

/// [`diagonal_wave_matches_per_cell_eval`] for one kernel over `by`
/// strip columns behind `halo`: column `j` is the block's global column
/// `j + 1`, the halo column `0`. A strip's block has a unit `i`-axis, so
/// each column is lane 0 of a row group of its own, its `i−1` inputs,
/// `k−1` and diagonal seeds the boundary, cut into tiles of `v`.
fn check_diagonal<K: Kernel3D>(
    k: K,
    by: usize,
    halo: &[f32],
    v: usize,
    b: f32,
) -> Result<(), TestCaseError> {
    let nz = halo.len();
    let mut a = vec![vec![0.0f32; nz]; by];
    for j in 0..by {
        for z in 0..nz {
            let west = |z: usize| if j == 0 { halo[z] } else { a[j - 1][z] };
            let (km1, diag) = match z {
                0 => (b, b),
                _ => (a[j][z - 1], west(z - 1)),
            };
            a[j][z] = k.eval(0, j as i64 + 1, z as i64, b, west(z), km1, diag);
        }
    }
    for j in 0..by {
        let west = if j == 0 { halo } else { &a[j - 1][..] };
        let column = Row {
            origin: (0, j as i64 + 1),
            corner: vec![b; nz],
            pencils: vec![(west.to_vec(), b, b)],
        };
        let got = &wave(&k, KernelTier::Bitwise, &column, v)[0];
        let same = got
            .iter()
            .zip(&a[j])
            .all(|(g, w)| g.to_bits() == w.to_bits());
        prop_assert!(
            same,
            "column {} (tiles of {}): {:?} vs {:?}",
            j,
            v,
            got,
            a[j]
        );
    }
    Ok(())
}

/// A row of `m` pencils of `len` cells.
fn row(m: usize, len: usize) -> Row {
    let cells =
        |n: usize, s: usize| (0..len).map(move |z| 0.25 + ((n * 7 + z * s) % 13) as f32 * 0.3);
    let seed = |n: usize| 1.0 + n as f32 * 0.1;
    Row {
        origin: (1, 2),
        corner: cells(m, 1).collect(),
        pencils: (0..m)
            .map(|n| (cells(n, 5).collect(), seed(n), seed(n) * 0.5))
            .collect(),
    }
}

/// Exhaustive sweep of the length × width corner cases the proptests
/// sample: every row length 0..=33 (all `(len + 3) % LANES`
/// remainders, the empty row, and a several-block span) at every row
/// width 1..=LANES, in one tile and in tiles of 1 to 5.
#[test]
fn wave_matches_pencil_for_every_length_and_width() {
    for len in 0..=33usize {
        for m in 1..=LANES {
            for v in [len.max(1), 1, 2, 3, 5] {
                let row = row(m, len);
                check_kernel(Paper3D, &row, v).unwrap();
                check_kernel(Relax3D::default(), &row, v).unwrap();
                check_kernel(Fused3D::default(), &row, v).unwrap();
            }
        }
    }
}

/// Long rows (64–100 cells, every `len % LANES`) at every width, cut
/// into a short straggler tile and the rest: the second tile's first
/// block goes on from the straggler's last step, its late lanes
/// rerunning the straggler's last cells.
#[test]
fn long_waves_with_a_straggler_match_pencil() {
    for len in 64..=100usize {
        for m in 1..=LANES {
            let row = row(m, len);
            let v = len / 3 + m;
            check_kernel(Paper3D, &row, v).unwrap();
            check_kernel(Relax3D::default(), &row, v).unwrap();
            check_kernel(Fused3D::default(), &row, v).unwrap();
        }
    }
}
