//! Dense 2-D and 3-D grids of `f32` values.
//!
//! These hold the arrays the paper's kernels update. Out-of-range reads
//! return a configurable boundary value (the experiments' arrays are
//! fully determined by their boundary: every interior cell is
//! recomputed from already-recomputed neighbors).
//!
//! A [`Grid3D`] carries its layout: pencil `(i, j)` (its `nz` cells
//! along `k`) starts at an offset of its own in the storage, and its
//! cells lie a fixed stride apart. A grid made here is row-major, `k`
//! fastest (stride 1); a distributed run returns its ranks' storage as
//! the tile sweep wrote it (stride [`crate::kernel::LANES`], see
//! [`crate::dist3d`]). Cells are read through the layout — [`Grid3D::get`],
//! [`Grid3D::pencil`], [`Grid3D::cells`] — and compared cell by cell;
//! [`Grid3D::data`] is the raw storage in the grid's layout.
//!
//! A dropped [`Grid3D`] parks its storage: a later distributed run of
//! the same size takes it as its result, unfilled.

use crate::kernel::LANES;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A dense row-major 2-D grid.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid2D {
    nx: usize,
    ny: usize,
    data: Vec<f32>,
    boundary: f32,
}

impl Grid2D {
    /// An `nx × ny` grid filled with `fill`, with out-of-range reads
    /// yielding `boundary`.
    pub fn new(nx: usize, ny: usize, fill: f32, boundary: f32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        Grid2D {
            nx,
            ny,
            data: vec![fill; nx * ny],
            boundary,
        }
    }

    /// Extent along i.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Extent along j.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The boundary value returned by out-of-range [`Self::get`]s.
    pub fn boundary(&self) -> f32 {
        self.boundary
    }

    /// Read `(i, j)`; out-of-range returns the boundary value.
    #[inline]
    pub fn get(&self, i: i64, j: i64) -> f32 {
        if i < 0 || j < 0 || i >= self.nx as i64 || j >= self.ny as i64 {
            self.boundary
        } else {
            self.data[i as usize * self.ny + j as usize]
        }
    }

    /// Write `(i, j)` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.nx && j < self.ny, "grid write out of range");
        self.data[i * self.ny + j] = v;
    }

    /// Raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The strip a unit-axis block holds (see
    /// [`crate::decomp::Decomp2D::block`]): strip cell `(i, j)` is block
    /// cell `(0, j, i)`, so this is one transpose of the block's
    /// `ny × nz` plane.
    ///
    /// # Panics
    /// If `block`'s `i`-axis is not a unit one.
    pub fn from_block(block: &Grid3D) -> Self {
        assert_eq!(block.nx(), 1, "a strip's block has a unit i-axis");
        let (nx, ny) = (block.nz(), block.ny());
        let mut data = vec![0.0; nx * ny];
        for j in 0..ny {
            for (row, v) in data.chunks_exact_mut(ny).zip(block.pencil(0, j)) {
                row[j] = v;
            }
        }
        Grid2D {
            nx,
            ny,
            data,
            boundary: block.boundary(),
        }
    }

    /// Maximum absolute difference to another grid of the same shape
    /// (see [`max_abs_diff`] for how NaN counts).
    pub fn max_abs_diff(&self, other: &Grid2D) -> f32 {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny), "shape mismatch");
        max_abs_diff(self.data.iter().copied(), other.data.iter().copied())
    }
}

/// A dense 3-D grid of `(i, j)` pencils along `k` (the paper's
/// `A(i,j,k)` sweep), stored in a layout of its own (see the module
/// docs). Two grids are equal when their shapes, boundaries and cells
/// are, whatever their layouts.
#[derive(Clone, Debug)]
pub struct Grid3D {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f32>,
    /// Where pencil `(i, j)` starts in `data`: `base[i·ny + j]`.
    base: Vec<usize>,
    /// Distance in `data` between a pencil's consecutive cells.
    stride: usize,
    boundary: f32,
}

impl Grid3D {
    /// An `nx × ny × nz` grid filled with `fill` — in the cells of a
    /// dropped grid of the same size when one is parked.
    ///
    /// # Panics
    /// If an extent is 0 or the cells cannot be allocated.
    pub fn new(nx: usize, ny: usize, nz: usize, fill: f32, boundary: f32) -> Self {
        let grid = Self::try_new(nx, ny, nz, fill, boundary);
        grid.unwrap_or_else(|| panic!("no memory for a {nx}×{ny}×{nz} grid"))
    }

    /// [`Grid3D::new`], or `None` where its cells cannot be allocated —
    /// a grid larger than memory comes back instead of aborting.
    pub fn try_new(nx: usize, ny: usize, nz: usize, fill: f32, boundary: f32) -> Option<Self> {
        Self::alloc(nx, ny, nz, Some(fill), boundary)
    }

    /// `len` floats of storage for a grid whose caller writes every one
    /// before it reads any (a run's result, see `plan::run3d_ranks`): a
    /// parked buffer comes as it is, unfilled. Debug builds start every
    /// float as NaN, so one left unwritten shows in any comparison.
    pub(crate) fn unfilled(len: usize) -> Option<Vec<f32>> {
        PARK.cells(len, cfg!(debug_assertions).then_some(f32::NAN))
    }

    /// A row-major grid in [`Park::cells`], filled with `fill` where it
    /// is `Some`.
    fn alloc(nx: usize, ny: usize, nz: usize, fill: Option<f32>, boundary: f32) -> Option<Self> {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid must be non-empty");
        let data = PARK.cells(nx.checked_mul(ny)?.checked_mul(nz)?, fill)?;
        let base = (0..nx * ny).map(|p| p * nz).collect();
        Some(Self::with_layout(nx, ny, nz, boundary, data, base, 1))
    }

    /// The grid whose pencil `(i, j)` is `nz` cells of `data`, from
    /// `base[i·ny + j]` on, `stride` apart.
    ///
    /// # Panics
    /// If `base` does not hold one offset per pencil, or a pencil runs
    /// past `data`.
    pub(crate) fn with_layout(
        nx: usize,
        ny: usize,
        nz: usize,
        boundary: f32,
        data: Vec<f32>,
        base: Vec<usize>,
        stride: usize,
    ) -> Self {
        let last = (nz - 1) * stride;
        let inside = base.iter().all(|&b| b + last < data.len());
        assert!(
            base.len() == nx * ny && inside,
            "a pencil per (i, j), inside the storage"
        );
        Grid3D {
            nx,
            ny,
            nz,
            data,
            base,
            stride,
            boundary,
        }
    }

    /// Extent along i.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Extent along j.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Extent along k.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// The boundary value.
    pub fn boundary(&self) -> f32 {
        self.boundary
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        self.base[i * self.ny + j] + k * self.stride
    }

    /// Read `(i, j, k)`; out-of-range returns the boundary value.
    #[inline]
    pub fn get(&self, i: i64, j: i64, k: i64) -> f32 {
        if i < 0
            || j < 0
            || k < 0
            || i >= self.nx as i64
            || j >= self.ny as i64
            || k >= self.nz as i64
        {
            self.boundary
        } else {
            self.data[self.idx(i as usize, j as usize, k as usize)]
        }
    }

    /// Write `(i, j, k)` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f32) {
        assert!(
            i < self.nx && j < self.ny && k < self.nz,
            "grid write out of range"
        );
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw storage in the grid's layout: the cells, and on a
    /// distributed run's result the sweep's padding between them — the
    /// three skew quads of each row group's run, and masked lanes where
    /// a block's `i`-extent is not a multiple of
    /// [`crate::kernel::LANES`]. Read cells through [`Self::cells`] or
    /// [`Self::pencil`].
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw storage, for the ranks of a run to write.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every float of the storage, cells and padding alike, to `x`.
    pub fn fill(&mut self, x: f32) {
        self.data.fill(x);
    }

    /// The `nz` cells of pencil `(i, j)`, `k` ascending.
    ///
    /// # Panics
    /// If `(i, j)` is out of range.
    pub fn pencil(&self, i: usize, j: usize) -> impl ExactSizeIterator<Item = f32> + '_ {
        assert!(i < self.nx && j < self.ny, "pencil out of range");
        let at = self.idx(i, j, 0);
        let cells = &self.data[at..=at + (self.nz - 1) * self.stride];
        cells.iter().step_by(self.stride).copied()
    }

    /// Cells `k .. k + out.len()` of pencil `(i, j)`, into `out`.
    pub(crate) fn read_pencil(&self, i: usize, j: usize, k: usize, out: &mut [f32]) {
        let cells = &self.data[self.idx(i, j, k)..];
        match self.stride {
            1 => out.copy_from_slice(&cells[..out.len()]),
            s => (out.iter_mut().zip(cells.iter().step_by(s))).for_each(|(x, &c)| *x = c),
        }
    }

    /// Cells `k .. k + n` of the pencils `(i + l, j)`, `l < LANES`, into
    /// `outs[l]` (`n` long each) — where the layout keeps them as the
    /// lanes of one skewed run, as a distributed result keeps a row group
    /// (lane `l`'s cell `k` in quad `k + l`); otherwise `false`, and
    /// nothing is read. `(i, j)` must be a pencil of the grid.
    pub(crate) fn read_lanes(
        &self,
        (i, j): (usize, usize),
        k: usize,
        outs: [&mut [f32]; LANES],
    ) -> bool {
        let at = self.idx(i, j, k);
        let lane = |l: usize| i + l < self.nx && self.idx(i + l, j, k) == at + (LANES + 1) * l;
        if self.stride != LANES || !(1..LANES).all(lane) {
            return false;
        }
        let quads = self.data[at..].as_chunks::<LANES>().0;
        for (l, out) in outs.into_iter().enumerate() {
            out.iter_mut().zip(&quads[l..]).for_each(|(x, q)| *x = q[l]);
        }
        true
    }

    /// Every cell in `(i, j, k)` order, `k` fastest.
    pub fn cells(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.nx).flat_map(move |i| (0..self.ny).flat_map(move |j| self.pencil(i, j)))
    }

    /// Maximum absolute difference to another grid of the same shape,
    /// cell by cell (see [`max_abs_diff`] for how NaN counts).
    pub fn max_abs_diff(&self, other: &Grid3D) -> f32 {
        assert_eq!(
            (self.nx, self.ny, self.nz),
            (other.nx, other.ny, other.nz),
            "shape mismatch"
        );
        max_abs_diff(self.cells(), other.cells())
    }
}

impl PartialEq for Grid3D {
    fn eq(&self, other: &Self) -> bool {
        let shape = |g: &Self| (g.nx, g.ny, g.nz, g.boundary);
        shape(self) == shape(other) && self.cells().eq(other.cells())
    }
}

impl Drop for Grid3D {
    fn drop(&mut self) {
        PARK.park(std::mem::take(&mut self.data));
    }
}

/// The park holds at most this many bytes of cells in all: grid sizes
/// come off the wire (`paper serve`), and parked cells are memory held.
const PARK_MAX_BYTES: usize = 64 << 20;

/// The cells of recently dropped [`Grid3D`]s, newest last: a caller
/// that holds several results at once (a service client holding a
/// script's replies) finds each size again once they drop.
struct Park(Mutex<VecDeque<Vec<f32>>>);

static PARK: Park = Park(Mutex::new(VecDeque::new()));

/// What a parked buffer holds of memory.
fn bytes(cells: &Vec<f32>) -> usize {
    cells.capacity() * std::mem::size_of::<f32>()
}

impl Park {
    /// Keep `cells` as the newest buffer, then evict the oldest ones
    /// until the park holds at most [`PARK_MAX_BYTES`]; free `cells`
    /// instead if they alone are over it or the lock is poisoned.
    fn park(&self, cells: Vec<f32>) {
        if !(1..=PARK_MAX_BYTES).contains(&bytes(&cells)) {
            return;
        }
        let Ok(mut parked) = self.0.lock() else {
            return;
        };
        parked.push_back(cells);
        let mut total: usize = parked.iter().map(bytes).sum();
        while total > PARK_MAX_BYTES {
            let Some(oldest) = parked.pop_front() else {
                break;
            };
            total -= bytes(&oldest);
        }
    }

    /// `len` cells filled with `fill`: the newest parked buffer that
    /// holds exactly `len` (as they are where `fill` is `None`), else
    /// fresh ones (zeros), or `None` where those cannot be allocated. A
    /// miss frees every parked buffer, which would keep its memory from
    /// the fresh ones.
    fn cells(&self, len: usize, fill: Option<f32>) -> Option<Vec<f32>> {
        let parked = self.0.lock().ok().and_then(|mut parked| {
            match parked.iter().rposition(|c| c.len() == len) {
                Some(newest) => parked.remove(newest),
                None => {
                    parked.clear();
                    None
                }
            }
        });
        let mut data = parked.unwrap_or_default();
        if data.is_empty() {
            data.try_reserve_exact(len).ok()?;
            data.resize(len, fill.unwrap_or(0.0));
        } else if let Some(x) = fill {
            data.fill(x);
        }
        Some(data)
    }
}

/// Largest cell-wise `|a − b|` of two equally long runs of cells. Cells
/// with equal bit patterns differ by 0 — the same NaN included — and
/// any other pair involving a NaN differs by `f32::INFINITY`: a NaN
/// where the reference holds a number must never verify as equal
/// (`f32::max` alone would discard it).
pub(crate) fn max_abs_diff(
    a: impl IntoIterator<Item = f32>,
    b: impl IntoIterator<Item = f32>,
) -> f32 {
    let cell = |(a, b): (f32, f32)| match (a - b).abs() {
        d if !d.is_nan() => d,
        _ if a.to_bits() == b.to_bits() => 0.0,
        _ => f32::INFINITY,
    };
    a.into_iter().zip(b).map(cell).fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_basics() {
        let mut g = Grid2D::new(3, 4, 0.0, 1.5);
        g.set(1, 2, 7.0);
        assert_eq!(g.get(1, 2), 7.0);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(-1, 0), 1.5);
        assert_eq!(g.get(0, 4), 1.5);
        assert_eq!(g.get(3, 0), 1.5);
        assert_eq!(g.nx(), 3);
        assert_eq!(g.ny(), 4);
    }

    #[test]
    fn grid3d_basics() {
        let mut g = Grid3D::new(2, 3, 4, 0.0, -1.0);
        g.set(1, 2, 3, 9.0);
        assert_eq!(g.get(1, 2, 3), 9.0);
        assert_eq!(g.get(2, 0, 0), -1.0);
        assert_eq!(g.get(0, 0, -1), -1.0);
        assert_eq!(g.data().len(), 24);
    }

    #[test]
    fn max_abs_diff() {
        let a = Grid2D::new(2, 2, 1.0, 0.0);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(1, 1, 3.5);
        assert_eq!(a.max_abs_diff(&b), 2.5);
    }

    #[test]
    fn max_abs_diff_never_discards_a_nan() {
        let fill = |x: f32| (Grid2D::new(2, 2, x, 0.0), Grid3D::new(2, 2, 2, x, 0.0));
        let (finite2, finite3) = fill(1.0);
        let (mut holed2, mut holed3) = fill(1.0);
        holed2.set(1, 0, f32::NAN);
        holed3.set(1, 0, 1, f32::NAN);
        // NaN vs finite, either way round.
        assert_eq!(holed2.max_abs_diff(&finite2), f32::INFINITY);
        assert_eq!(finite2.max_abs_diff(&holed2), f32::INFINITY);
        assert_eq!(holed3.max_abs_diff(&finite3), f32::INFINITY);
        assert_eq!(finite3.max_abs_diff(&holed3), f32::INFINITY);
        // The same NaN in the same cell is the same bits.
        assert_eq!(holed2.max_abs_diff(&holed2.clone()), 0.0);
        assert_eq!(holed3.max_abs_diff(&holed3.clone()), 0.0);
        // A NaN with another payload is another value.
        let mut other3 = holed3.clone();
        other3.set(1, 0, 1, f32::from_bits(f32::NAN.to_bits() ^ 1));
        assert_eq!(holed3.max_abs_diff(&other3), f32::INFINITY);
        // Finite vs finite is the plain maximum, 0 vs −0 included.
        let (mut off2, mut off3) = fill(1.0);
        off2.set(0, 1, -0.5);
        off3.set(0, 1, 0, 3.0);
        assert_eq!(off2.max_abs_diff(&finite2), 1.5);
        assert_eq!(off3.max_abs_diff(&finite3), 2.0);
        let (zero2, _) = fill(0.0);
        let (neg2, _) = fill(-0.0);
        assert_eq!(zero2.max_abs_diff(&neg2), 0.0);
    }

    /// A park of its own: the global one takes every test's grids.
    fn park() -> Park {
        Park(Mutex::new(VecDeque::new()))
    }

    /// The cell counts `park` holds, oldest first.
    fn held(park: &Park) -> Vec<usize> {
        let parked = park.0.lock().map(|p| p.iter().map(Vec::len).collect());
        parked.unwrap_or_default()
    }

    #[test]
    fn a_park_keeps_the_newest_buffer_of_at_most_64_mib() {
        let park = park();
        let newest = vec![3.0; 2];
        let at = newest.as_ptr();
        for cells in [vec![1.0; 2], vec![2.0; 1], newest] {
            park.park(cells);
        }
        assert_eq!(held(&park), [2, 1, 2], "every size is kept, newest last");
        let taken = park.cells(2, None).expect("parked");
        assert!(taken.as_ptr() == at, "the newest of the count is taken");
        assert_eq!(held(&park), [2, 1], "and only it");
        let max = PARK_MAX_BYTES / std::mem::size_of::<f32>();
        park.park(vec![0.0; max + 1]);
        assert_eq!(held(&park), [2, 1], "one buffer over 64 MiB is freed");
    }

    #[test]
    fn a_miss_empties_the_park() {
        let park = park();
        park.park(vec![1.0; 2]);
        park.park(vec![2.0; 3]);
        assert_eq!(park.cells(1, None), Some(vec![0.0]), "not another count");
        assert_eq!(held(&park), [0; 0], "and a miss frees them all");
    }

    #[test]
    fn the_oldest_buffers_go_past_64_mib_in_all() {
        let park = park();
        let half = PARK_MAX_BYTES / std::mem::size_of::<f32>() / 2;
        park.park(vec![0.0; half]);
        park.park(vec![0.0; half - 1]);
        assert_eq!(held(&park), [half, half - 1], "64 MiB in all are kept");
        park.park(vec![0.0; 2]);
        assert_eq!(held(&park), [half - 1, 2], "past that the oldest goes");
        park.park(vec![0.0; 2 * half]);
        assert_eq!(held(&park), [2 * half], "as many as it takes");
    }

    #[test]
    fn try_new_fills_every_cell_after_a_park() {
        // `try_new`'s cells, on a park of its own (see above).
        let park = park();
        let cells = vec![7.0; 24];
        let parked = cells.as_ptr();
        park.park(cells);
        let filled = park.cells(24, Some(-1.5)).expect("fits");
        assert!(filled.as_ptr() == parked && filled.iter().all(|&x| x == -1.5));
        park.park(filled);
        assert_eq!(park.cells(24, None), Some(vec![-1.5; 24]), "as they were");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_out_of_range_panics() {
        Grid2D::new(2, 2, 0.0, 0.0).set(2, 0, 1.0);
    }

    /// Cells are read, written and compared through the layout: two
    /// runs of two interleaved pencils each (stride 2) hold the same
    /// cells as a row-major grid, in other places.
    #[test]
    fn cells_go_through_the_layout() {
        let data: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut runs = Grid3D::with_layout(2, 2, 3, -1.0, data, vec![0, 1, 6, 7], 2);
        assert_eq!(
            (runs.get(0, 1, 2), runs.get(1, 0, 1), runs.get(1, 1, 3)),
            (5.0, 8.0, -1.0)
        );
        assert!(runs.pencil(1, 1).eq([7.0, 9.0, 11.0]));
        let mut rows = Grid3D::new(2, 2, 3, 0.0, -1.0);
        for (i, j, k) in
            (0..2).flat_map(|i| (0..2).flat_map(move |j| (0..3).map(move |k| (i, j, k))))
        {
            rows.set(i, j, k, runs.get(i as i64, j as i64, k as i64));
        }
        assert!(rows.cells().eq(runs.cells()));
        assert_eq!((rows == runs, rows.max_abs_diff(&runs)), (true, 0.0));
        assert_ne!(rows.data(), runs.data());
        runs.set(1, 1, 0, 0.5);
        assert_eq!(
            (runs.data()[7], rows == runs, rows.max_abs_diff(&runs)),
            (0.5, false, 6.5)
        );
        // A unit-axis block: strip cell (i, j) is block cell (0, j, i).
        let strip = Grid3D::with_layout(
            1,
            2,
            3,
            0.0,
            (0..6).map(|x| x as f32).collect(),
            vec![0, 1],
            2,
        );
        assert_eq!(
            Grid2D::from_block(&strip).data(),
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn k_fastest_layout() {
        let mut g = Grid3D::new(2, 2, 2, 0.0, 0.0);
        g.set(0, 0, 1, 1.0);
        g.set(0, 1, 0, 2.0);
        g.set(1, 0, 0, 3.0);
        assert_eq!(g.data()[1], 1.0);
        assert_eq!(g.data()[2], 2.0);
        assert_eq!(g.data()[4], 3.0);
    }
}
