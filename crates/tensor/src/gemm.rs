//! Matrix multiplication: one register-blocked kernel over strided views.
//!
//! **The kernel.** [`matmul_into`] computes `C += A·B` for views given as
//! `(data, row stride, column stride)`, so a transposed operand or one
//! head's columns of a wider matrix is just another view: [`matmul`],
//! [`matmul_tn`] and [`matmul_nt`] are the same call with strides swapped.
//! Work is cut into `MR × NR` tiles of `C` whose accumulators stay in
//! registers while `k` runs; `k` is blocked by `KC` so a panel of `B` stays
//! in cache across the row tiles that reuse it. `B` is read in place when
//! its rows are contiguous and packed into `NR`-wide panels when they are
//! not (a transposed view) or at the ragged right edge. The body is plain
//! Rust, compiled once per instruction set (`crate::simd`: baseline, AVX2,
//! AVX-512) with the tile width as a constant of each build — 6×16 for the
//! first two, 6×32 under AVX-512, whose twelve 16-lane accumulators fit its
//! 32 registers — and the widest build the processor runs is chosen at run
//! time. [`matmul_into_with`] runs a named build.
//!
//! **The summation-order contract.** Every output element is
//! `((0.0 + a₀·b₀) + a₁·b₁) + …` in strictly ascending `k`, each product
//! rounded before it is added (no fused multiply-add, no split-`k`, no
//! per-thread partial sums, no skipped zero terms). [`matmul_naive`] is
//! that definition written as a triple loop, and every path here equals it
//! bit for bit — whatever the tile an element falls in, the number of rows,
//! the thread that computes it or the instruction set. The repo's
//! bit-identity gates (pipelined == serial, process == thread, incremental
//! decode == recompute) rest on this.
//!
//! **Threads.** A product below `PAR_FLOPS` runs on the caller. A larger
//! one is cut into row blocks that the caller and the parked helper threads
//! of `crate::pool` claim one at a time; no thread is spawned per call.

use crate::pool::Pool;
use crate::simd::{per_isa, Isa};
use crate::Matrix;

/// Rows of `C` per register tile.
const MR: usize = 6;
/// Columns of `C` per register tile: two vectors of the build's width. Six
/// rows of two are twelve accumulators, which with two vectors of `B` and
/// one broadcast of `A` fill the 16 registers of AVX2 and fit twice over in
/// the 32 of AVX-512. Measured end to end on the AVX-512 build (`serial_wide`,
/// 3 alternated pairs each): the same 16 columns in half the vectors — six
/// add chains for two ports — run at 0.84 of 6×32, the speed of the AVX2
/// build; eight rows of 32 are indistinguishable from six (×1.02, 2 of 3).
const fn tile_width(isa: Isa) -> usize {
    match isa {
        Isa::Baseline | Isa::Avx2 => 16,
        Isa::Avx512 => 32,
    }
}
/// Depth of one `k` block: an `MR × KC` strip of `A` (6 KiB) and a
/// `KC × NR` panel of `B` stay in L1 under it. The panel is 16 KiB for the
/// baseline and AVX2 builds (half of a 32 KiB L1d) and 32 KiB for the
/// AVX-512 build: two thirds of the 48 KiB L1d of the processors this was
/// sized on (Sapphire Rapids), all of the 32 KiB of the first AVX-512
/// generation. `KC = 128` under the wide tile was measured here and is
/// inside the noise of 256 (`serial_wide`, 4 alternated pairs: 2 of 4,
/// median ×0.99), so one depth serves every build.
const KC: usize = 256;
/// Products of fewer floating-point operations run on the caller alone:
/// waking a parked thread costs tens of microseconds, and this much
/// arithmetic takes one thread about 100 µs on the AVX-512 build (about 140
/// on AVX2, 280 at the baseline). Twice the threshold was measured on the
/// AVX-512 build over 8 alternated pairs and resolved nothing: `serial_wide`,
/// which issues no product between the two values, won 3 of 8 (median
/// ×0.99); `ptd222_thread`, whose 64×128×512 LM-head products sit exactly
/// on this one, won 6 of 8 at a median of ×1.03, three of them at ×1.15–1.21
/// in one session and five within ±5% in the next. So it stays.
const PAR_FLOPS: usize = 1 << 23;
/// Floats per page of memory, for touching an allocation once per page.
const PAGE_FLOATS: usize = 4096 / std::mem::size_of::<f32>();
/// Row blocks published per thread, so that a helper scheduled late leaves
/// the caller most of the blocks rather than half the matrix to wait for.
const BLOCKS_PER_THREAD: usize = 4;

/// A read-only `rows × cols` view: element `(i, j)` is
/// `data[i·row_stride + j·col_stride]`.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// A view over `data`; panics unless every element lies inside it.
    fn new(
        data: &'a [f32],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        if rows > 0 && cols > 0 {
            let last = ((rows - 1).checked_mul(row_stride))
                .zip((cols - 1).checked_mul(col_stride))
                .and_then(|(r, c)| r.checked_add(c));
            assert!(
                last.is_some_and(|l| l < data.len()),
                "view reaches past its buffer"
            );
        }
        View {
            data,
            rows,
            cols,
            rs: row_stride,
            cs: col_stride,
        }
    }

    /// The transposed view of the same memory.
    pub fn t(self) -> Self {
        View {
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }
}

/// A writable `rows × cols` view with contiguous, non-overlapping rows:
/// element `(i, j)` is `data[i·row_stride + j]`.
#[derive(Debug)]
pub struct ViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    rs: usize,
}

impl<'a> ViewMut<'a> {
    /// A view over `data`; panics unless every element lies inside it and
    /// rows do not overlap.
    fn new(data: &'a mut [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(rows <= 1 || row_stride >= cols, "rows overlap");
        if rows > 0 && cols > 0 {
            let end = ((rows - 1).checked_mul(row_stride)).and_then(|r| r.checked_add(cols));
            assert!(
                end.is_some_and(|e| e <= data.len()),
                "view reaches past its buffer"
            );
        }
        ViewMut {
            data,
            rows,
            cols,
            rs: row_stride,
        }
    }
}

impl Matrix {
    /// The whole matrix as a view.
    pub fn view(&self) -> View<'_> {
        View::new(self.as_slice(), self.rows(), self.cols(), self.cols(), 1)
    }

    /// The `rows × cols` block whose top-left element is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> View<'_> {
        assert!(r0 + rows <= self.rows() && c0 + cols <= self.cols());
        let start = (r0 * self.cols() + c0).min(self.len());
        View::new(&self.as_slice()[start..], rows, cols, self.cols(), 1)
    }

    /// The writable `rows × cols` block whose top-left element is `(r0, c0)`.
    pub fn block_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> ViewMut<'_> {
        assert!(r0 + rows <= self.rows() && c0 + cols <= self.cols());
        let (stride, start) = (self.cols(), (r0 * self.cols() + c0).min(self.len()));
        ViewMut::new(&mut self.as_mut_slice()[start..], rows, cols, stride)
    }
}

/// `C += A · B` under the summation-order contract of this module; with `C`
/// zeroed beforehand, `C = A · B`.
pub fn matmul_into(a: View<'_>, b: View<'_>, c: ViewMut<'_>) {
    matmul_into_with(Isa::active(), a, b, c);
}

/// The build the dispatched kernels of this crate run on this processor and
/// its `gemm` tile, as `"avx512, 6x32"`.
pub fn active_build() -> String {
    let isa = Isa::active();
    format!("{}, {MR}x{}", isa.name(), tile_width(isa))
}

/// `A · B` of two views as a new matrix.
pub fn matmul_view(a: View<'_>, b: View<'_>) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    // Fresh zeroed memory is mapped page by page on first touch. Two threads
    // of one process taking those faults at the same time pay several times
    // what one thread pays for them in a row (a 192-row training step on the
    // AVX-512 build, 4 alternated pairs: 89 ms with the helper faulting its
    // blocks in, 72 ms without, and 1.4 times the CPU), so the caller maps
    // all of `C` before a helper can see it.
    for page in out.as_mut_slice().chunks_mut(PAGE_FLOATS) {
        page[0] = std::hint::black_box(0.0);
    }
    matmul_into(a, b, out.block_mut(0, 0, a.rows, b.cols));
    out
}

/// `C = A · B` (`m×k` times `k×n`).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    matmul_view(a.view(), b.view())
}

/// `C = Aᵀ · B` (`k×m`ᵀ times `k×n`) without materializing the transpose.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "outer dimensions must agree");
    matmul_view(a.view().t(), b.view())
}

/// `C = A · Bᵀ` (`m×k` times `n×k`ᵀ) without materializing the transpose.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    matmul_view(a.view(), b.view().t())
}

/// Textbook triple loop: the definition the kernel is tested against.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..a.cols() {
            acc += a.get(i, kk) * b.get(kk, j);
        }
        acc
    })
}

/// One product as the kernel sees it: raw operands whose bounds the views
/// checked, and `B`'s packed panels.
struct Job {
    m: usize,
    k: usize,
    n: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    b_rs: usize,
    c: *mut f32,
    c_rs: usize,
    /// Columns per panel: the tile width of the build that will run.
    nr: usize,
    /// Column panels from this one on are read from `packed`, the ones
    /// before it in place.
    first_packed: usize,
    /// Panel `first_packed + p` as `k` rows of `nr` floats (zero beyond
    /// column `n`) at `p · k · nr`.
    packed: Vec<f32>,
}

// SAFETY: `a`, `b` and `packed` are only read. `c` is written, by
// `rows`, only inside the row range a thread was given, and `gemm`
// hands out disjoint ranges of non-overlapping rows (`ViewMut`'s invariant)
// while it holds the `ViewMut`'s exclusive borrow.
unsafe impl Sync for Job {}

/// [`matmul_into`] on the build of the kernel for `isa`, which this
/// processor must run, with `B`'s panels as wide as that build's tile: the
/// same bits from every build.
pub fn matmul_into_with(isa: Isa, a: View<'_>, b: View<'_>, c: ViewMut<'_>) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!((c.rows, c.cols), (a.rows, b.cols), "output shape");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nr = tile_width(isa);
    let panels = n.div_ceil(nr);
    let first_packed = if b.cs != 1 {
        0
    } else if n % nr != 0 {
        panels - 1
    } else {
        panels
    };
    let mut packed = vec![0.0f32; (panels - first_packed) * k * nr];
    for (panel, dst) in (first_packed..panels).zip(packed.chunks_exact_mut(k * nr)) {
        let j0 = panel * nr;
        // Walk `b` along its unit stride; a depth of `KC` keeps the rows
        // being filled in L1 meanwhile.
        for (p0, chunk) in (0..k).step_by(KC).zip(dst.chunks_mut(KC * nr)) {
            for jj in 0..nr.min(n - j0) {
                for (p, row) in chunk.chunks_exact_mut(nr).enumerate() {
                    // SAFETY: element `(p0 + p, j0 + jj)` of `b`, inside
                    // `b.data` by `View`'s invariant: `p0 + p < k` and
                    // `j0 + jj < n`.
                    row[jj] = unsafe { *b.data.as_ptr().add((p0 + p) * b.rs + (j0 + jj) * b.cs) };
                }
            }
        }
    }
    let job = Job {
        m,
        k,
        n,
        a: a.data.as_ptr(),
        a_rs: a.rs,
        a_cs: a.cs,
        b: b.data.as_ptr(),
        b_rs: b.rs,
        c: c.data.as_mut_ptr(),
        c_rs: c.rs,
        nr,
        first_packed,
        packed,
    };
    let rows = |i0, i1| rows_with(isa, &job, i0, i1);
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if flops < PAR_FLOPS {
        return rows(0, m);
    }
    let threads = Pool::global().threads();
    let tiles = m.div_ceil(MR);
    let blocks = tiles.min(BLOCKS_PER_THREAD * threads);
    if threads == 1 || blocks < 2 {
        return rows(0, m);
    }
    let block_rows = tiles.div_ceil(blocks) * MR;
    Pool::global().run(m.div_ceil(block_rows), &|i| {
        rows(i * block_rows, ((i + 1) * block_rows).min(m));
    });
}

per_isa! {
    /// Rows `i0..i1` of `C`, one `k` block and column panel at a time.
    fn rows_with[ISA](job: &Job, i0: usize, i1: usize) {
        const NR: usize = tile_width(ISA);
        // The reads of `packed` and of `b` below rest on this layout.
        assert_eq!(job.nr, NR, "panels packed for another build");
        debug_assert!(i0 <= i1 && i1 <= job.m);
        for k0 in (0..job.k).step_by(KC) {
            let kc = KC.min(job.k - k0);
            for panel in 0..job.n.div_ceil(NR) {
                let j0 = panel * NR;
                let nr = NR.min(job.n - j0);
                // SAFETY (both arms): row `k0` of this panel, with `kc`
                // rows of `NR` readable floats from there on — in `packed`
                // by its layout, in place because an unpacked panel has
                // `j0 + NR <= n` and unit column stride.
                let (b, b_rs) = if panel >= job.first_packed {
                    let at = (panel - job.first_packed) * job.k + k0;
                    (unsafe { job.packed.as_ptr().add(at * NR) }, NR)
                } else {
                    (unsafe { job.b.add(k0 * job.b_rs + j0) }, job.b_rs)
                };
                for i in (i0..i1).step_by(MR) {
                    // SAFETY: `i < m`, `k0 < k`, `j0 < n`: the first
                    // elements of an `mr × kc` block of `A` and an
                    // `mr × nr` block of `C` that lie inside their views.
                    let (a, c) = unsafe {
                        (
                            job.a.add(i * job.a_rs + k0 * job.a_cs),
                            job.c.add(i * job.c_rs + j0),
                        )
                    };
                    let strides = (job.a_rs, job.a_cs, b_rs, job.c_rs);
                    // SAFETY: as above; `tile::<R>` touches `R` rows.
                    unsafe {
                        match (i1 - i).min(MR) {
                            1 => tile::<1, NR>(kc, nr, a, b, c, strides),
                            2 => tile::<2, NR>(kc, nr, a, b, c, strides),
                            3 => tile::<3, NR>(kc, nr, a, b, c, strides),
                            4 => tile::<4, NR>(kc, nr, a, b, c, strides),
                            5 => tile::<5, NR>(kc, nr, a, b, c, strides),
                            _ => tile::<MR, NR>(kc, nr, a, b, c, strides),
                        }
                    }
                }
            }
        }
    }
}

per_isa! {
    /// The micro-kernel with nothing around it, as the ceiling to read a
    /// product's rate against: one full tile whose `A` is `a`, `MR`
    /// coefficients per `k`, and whose `B` is the first `NR` of them at
    /// every `k` — operands that never leave L1 if `a` fits it. Each step
    /// advances the build's `MR × NR` sums by one rounded product —
    /// multiply, then add, as the contract has it. Returns the
    /// floating-point operations performed and the sum of the tile. `a`
    /// holds at least 32 coefficients.
    pub fn tile_peak_with[ISA](a: &[f32]) -> (usize, f32) {
        const NR: usize = tile_width(ISA);
        assert!(a.len() >= NR, "fewer coefficients than a row of `B`");
        let mut c = [[0.0f32; NR]; MR];
        let kc = a.len() / MR;
        // Strides the compiler cannot see through, as in `rows_with`, so
        // that this is the loop a product runs.
        let strides = std::hint::black_box((1, MR, 0, NR));
        // SAFETY: `A` is `a` as `MR` rows of `kc` with strides `(1, MR)`,
        // whose last element `MR - 1 + (kc - 1)·MR` is inside `a`; every row
        // of `B` is the first `NR` floats of `a` (row stride 0); `c` is `MR`
        // rows of `NR` floats, `NR` apart.
        unsafe { full_tile::<MR, NR>(kc, a.as_ptr(), a.as_ptr(), c.as_mut_ptr().cast(), strides) };
        (2 * MR * NR * kc, c.iter().flatten().sum())
    }
}

/// `C[..R, ..nr] += A[..R, ..kc] · B[..kc, ..NR]`; a ragged tile
/// (`nr < NR`) goes through a full-width copy of its part of `C`.
///
/// # Safety
/// With `(a_rs, a_cs, b_rs, c_rs) = strides`: `a[r·a_rs + p·a_cs]` must be
/// readable for `r < R`, `p < kc`; `b[p·b_rs .. p·b_rs + NR]` for `p < kc`;
/// and `c[r·c_rs .. r·c_rs + nr]` readable and writable for `r < R`, with
/// `nr <= NR`.
#[inline(always)]
unsafe fn tile<const R: usize, const NR: usize>(
    kc: usize,
    nr: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    (a_rs, a_cs, b_rs, c_rs): (usize, usize, usize, usize),
) {
    if nr == NR {
        return full_tile::<R, NR>(kc, a, b, c, (a_rs, a_cs, b_rs, c_rs));
    }
    // The columns beyond `nr` start at zero, collect products with the
    // zero padding of the packed panel, and are dropped.
    let mut wide = [[0.0f32; NR]; R];
    for (r, row) in wide.iter_mut().enumerate() {
        std::ptr::copy_nonoverlapping(c.add(r * c_rs), row.as_mut_ptr(), nr);
    }
    full_tile::<R, NR>(kc, a, b, wide.as_mut_ptr().cast(), (a_rs, a_cs, b_rs, NR));
    for (r, row) in wide.iter().enumerate() {
        std::ptr::copy_nonoverlapping(row.as_ptr(), c.add(r * c_rs), nr);
    }
}

/// The micro-kernel: `R × NR` sums of `C` held in registers across the `kc`
/// loop, each advanced by one rounded product per `k`.
///
/// # Safety
/// As [`tile`] with `nr = NR`.
#[inline(always)]
unsafe fn full_tile<const R: usize, const NR: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    (a_rs, a_cs, b_rs, c_rs): (usize, usize, usize, usize),
) {
    let mut acc = [[0.0f32; NR]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = c.add(r * c_rs).cast::<[f32; NR]>().read_unaligned();
    }
    for p in 0..kc {
        let brow = b.add(p * b_rs).cast::<[f32; NR]>().read_unaligned();
        for (r, row) in acc.iter_mut().enumerate() {
            let av = *a.add(r * a_rs + p * a_cs);
            for (o, bv) in row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c.add(r * c_rs).cast::<[f32; NR]>().write_unaligned(*row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::builds_exercised;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::randn(r, c, 1.0, &mut rng)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// [`matmul_view`] on the build for `isa`.
    fn product(isa: Isa, a: View<'_>, b: View<'_>) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        matmul_into_with(isa, a, b, out.block_mut(0, 0, a.rows, b.cols));
        out
    }

    /// All three variants of the `m×k · k×n` product — as dispatched and on
    /// every build this host runs — against the naive definition, bit for
    /// bit.
    fn assert_variants_match_naive(m: usize, k: usize, n: usize, seed: u64) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let (at, bt) = (a.transpose(), b.transpose());
        let want = bits(&matmul_naive(&a, &b));
        let shape = format!("{m}x{k}x{n}");
        assert_eq!(bits(&matmul(&a, &b)), want, "matmul {shape}");
        assert_eq!(bits(&matmul_tn(&at, &b)), want, "matmul_tn {shape}");
        assert_eq!(bits(&matmul_nt(&a, &bt)), want, "matmul_nt {shape}");
        for isa in builds_exercised() {
            let on = format!("{shape} on {}", isa.name());
            let nn = product(isa, a.view(), b.view());
            assert_eq!(bits(&nn), want, "matmul {on}");
            let tn = product(isa, at.view().t(), b.view());
            assert_eq!(bits(&tn), want, "matmul_tn {on}");
            let nt = product(isa, a.view(), bt.view().t());
            assert_eq!(bits(&nt), want, "matmul_nt {on}");
        }
    }

    /// Dimensions around every blocking constant — both tile widths — and 0
    /// and 1.
    const EDGES: [usize; 16] = [
        0,
        1,
        2,
        MR - 1,
        MR,
        MR + 1,
        15,
        16,
        17,
        31,
        32,
        33,
        2 * 16 + 3,
        2 * 32 + 3,
        KC - 1,
        KC + 1,
    ];

    #[test]
    fn edges_straddle_the_tile_of_every_build() {
        for isa in Isa::ALL {
            let nr = tile_width(isa);
            for edge in [nr - 1, nr, nr + 1, 2 * nr + 3] {
                assert!(EDGES.contains(&edge), "{edge} for {}", isa.name());
            }
        }
    }

    #[test]
    fn all_variants_equal_naive_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..200u64 {
            let mut dim = |cap: usize| {
                if rng.gen_range(0..3) == 0 {
                    EDGES[rng.gen_range(0..EDGES.len())]
                } else {
                    rng.gen_range(0..cap)
                }
            };
            let (m, k, n) = (dim(70), dim(2 * KC + 40), dim(70));
            assert_variants_match_naive(m, k, n, 100 + case);
        }
        for &e in &EDGES {
            assert_variants_match_naive(e, e, e, e as u64);
        }
    }

    #[test]
    fn helper_threads_do_not_change_bits() {
        // Large enough to be cut into row blocks (and, on a machine with
        // more than one core, shared with the helpers).
        let (m, k, n) = (203, KC + 37, 131);
        assert!(2 * m * k * n >= PAR_FLOPS);
        assert_variants_match_naive(m, k, n, 21);
    }

    #[test]
    fn eight_concurrent_callers_equal_naive_bitwise() {
        // One job slot: most of these find it taken and run serially, one
        // at a time shares its blocks with the helpers.
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    for rep in 0..3 {
                        assert_variants_match_naive(
                            150 + t as usize,
                            KC + 9,
                            140,
                            40 + 8 * rep + t,
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn every_build_equals_the_baseline_build() {
        for (m, k, n, seed) in [
            (37, 300, 45, 1),
            (6, 16, 16, 2),
            (6, 32, 32, 3),
            (64, 32, 64, 4),
        ] {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed + 50);
            let baseline = bits(&product(Isa::Baseline, a.view(), b.view().t()));
            assert_eq!(bits(&matmul_nt(&a, &b)), baseline, "dispatched");
            for isa in builds_exercised() {
                let got = product(isa, a.view(), b.view().t());
                assert_eq!(bits(&got), baseline, "{}", isa.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "another build")]
    fn panels_packed_for_another_build_are_refused() {
        let job = Job {
            m: 1,
            k: 1,
            n: 1,
            a: std::ptr::null(),
            a_rs: 1,
            a_cs: 1,
            b: std::ptr::null(),
            b_rs: 1,
            c: std::ptr::null_mut(),
            c_rs: 1,
            nr: tile_width(Isa::Baseline) + 1,
            first_packed: 0,
            packed: Vec::new(),
        };
        rows_with(Isa::Baseline, &job, 0, 1);
    }

    #[test]
    fn rows_are_independent_of_the_rows_around_them() {
        // Row i of A·B equals (row i of A)·B: what incremental decode ==
        // full-prefix recompute rests on.
        let a = rand_matrix(23, 70, 5);
        let b = rand_matrix(70, 50, 6);
        for isa in builds_exercised() {
            let full = product(isa, a.view(), b.view());
            for i in 0..a.rows() {
                let one = product(isa, a.block(i, 0, 1, 70), b.view());
                let want = full.rows_slice(i, i + 1);
                assert_eq!(bits(&one), bits(&want), "row {i} on {}", isa.name());
            }
        }
    }

    #[test]
    fn blocks_multiply_in_place() {
        // One head's columns of wider matrices, written into one head's
        // columns of the output.
        let (s, hd, heads) = (9, 5, 3);
        let q = rand_matrix(2 * s, heads * hd, 7);
        let k = rand_matrix(2 * s, heads * hd, 8);
        let (qh, kh) = (q.block(s, hd, s, hd), k.block(s, hd, s, hd));
        let copy = |m: &Matrix| m.rows_slice(s, 2 * s).columns(hd, 2 * hd);
        let want_scores = matmul_naive(&copy(&q), &copy(&k).transpose());
        let block = matmul_naive(&want_scores, &copy(&k));
        let want_out = Matrix::from_fn(2 * s, heads * hd, |r, c| {
            if r >= s && (hd..2 * hd).contains(&c) {
                block.get(r - s, c - hd)
            } else {
                0.0
            }
        });
        assert_eq!(bits(&matmul_view(qh, kh.t())), bits(&want_scores));
        for isa in builds_exercised() {
            let scores = product(isa, qh, kh.t());
            assert_eq!(bits(&scores), bits(&want_scores), "{}", isa.name());
            let mut out = Matrix::zeros(2 * s, heads * hd);
            matmul_into_with(isa, scores.view(), kh, out.block_mut(s, hd, s, hd));
            assert_eq!(bits(&out), bits(&want_out), "{}", isa.name());
        }
    }

    #[test]
    fn non_finite_operands_poison_the_same_elements_in_every_variant() {
        // 0·inf and 0·NaN are NaN: a zero coefficient must not hide a
        // blown-up operand in one variant and not in another.
        let mut a = rand_matrix(7, 20, 9);
        let mut b = rand_matrix(20, 18, 10);
        a.set(2, 3, 0.0);
        b.set(3, 5, f32::INFINITY);
        a.set(4, 11, 0.0);
        b.set(11, 17, f32::NAN);
        a.set(6, 0, f32::NEG_INFINITY);
        let (at, bt) = (a.transpose(), b.transpose());
        let poisoned =
            |m: &Matrix| -> Vec<bool> { m.as_slice().iter().map(|v| v.is_nan()).collect() };
        let want = poisoned(&matmul_naive(&a, &b));
        for isa in builds_exercised() {
            let nn = product(isa, a.view(), b.view());
            assert!(nn.get(2, 5).is_nan() && nn.get(4, 17).is_nan());
            assert_eq!(poisoned(&nn), want, "{}", isa.name());
            let tn = product(isa, at.view().t(), b.view());
            assert_eq!(poisoned(&tn), want, "{}", isa.name());
            let nt = product(isa, a.view(), bt.view().t());
            assert_eq!(poisoned(&nt), want, "{}", isa.name());
        }
    }

    #[test]
    fn active_build_names_the_instruction_set_and_its_tile() {
        let known = ["baseline, 6x16", "avx2, 6x16", "avx512, 6x32"];
        let build = active_build();
        assert!(known.contains(&build.as_str()), "{build}");
        assert!(build.starts_with(Isa::active().name()), "{build}");
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_matrix(6, 6, 7);
        let eye = Matrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "past its buffer")]
    fn view_past_its_buffer_panics() {
        View::new(&[0.0; 5], 2, 3, 3, 1);
    }
}
