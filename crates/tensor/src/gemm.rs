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
//! Rust; it is compiled a second time with AVX2 enabled and chosen at run
//! time (`crate::simd`).
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
use crate::simd::dual_compiled;
use crate::Matrix;

/// Rows of `C` per register tile.
const MR: usize = 6;
/// Columns of `C` per register tile: two 8-lane vectors.
const NR: usize = 16;
/// Depth of one `k` block: an `MR × KC` strip of `A` and a `KC × NR` panel
/// of `B` (16 KiB) stay in L1 under it.
const KC: usize = 256;
/// Products of fewer floating-point operations run on the caller alone:
/// waking a parked thread costs tens of microseconds, this much arithmetic
/// a few hundred.
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
    gemm(a, b, c, false);
}

/// `A · B` of two views as a new matrix.
pub fn matmul_view(a: View<'_>, b: View<'_>) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    // Fresh zeroed memory is mapped page by page on first touch. Two threads
    // of one process taking those faults at the same time pay several times
    // what one thread pays for them in a row (a 192-row training step here:
    // 139 ms with the helper faulting its blocks in, 115 ms without), so the
    // caller maps all of `C` before a helper can see it.
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
    /// Column panels from this one on are read from `packed`, the ones
    /// before it in place.
    first_packed: usize,
    /// Panel `first_packed + p` as `k` rows of `NR` floats (zero beyond
    /// column `n`) at `p · k · NR`.
    packed: Vec<f32>,
}

// SAFETY: `a`, `b` and `packed` are only read. `c` is written, by
// `rows`, only inside the row range a thread was given, and `gemm`
// hands out disjoint ranges of non-overlapping rows (`ViewMut`'s invariant)
// while it holds the `ViewMut`'s exclusive borrow.
unsafe impl Sync for Job {}

/// `portable_only` keeps the run-time dispatch off (tests compare the two
/// compilations of the body).
fn gemm(a: View<'_>, b: View<'_>, c: ViewMut<'_>, portable_only: bool) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!((c.rows, c.cols), (a.rows, b.cols), "output shape");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let panels = n.div_ceil(NR);
    let first_packed = if b.cs != 1 {
        0
    } else if n % NR != 0 {
        panels - 1
    } else {
        panels
    };
    let mut packed = vec![0.0f32; (panels - first_packed) * k * NR];
    for (panel, dst) in (first_packed..panels).zip(packed.chunks_exact_mut(k * NR)) {
        let j0 = panel * NR;
        let nr = NR.min(n - j0);
        // Walk `b` along its unit stride; a depth of `KC` keeps the rows
        // being filled in L1 meanwhile.
        for (p0, chunk) in (0..k).step_by(KC).zip(dst.chunks_mut(KC * NR)) {
            for jj in 0..nr {
                for (p, row) in chunk.chunks_exact_mut(NR).enumerate() {
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
        first_packed,
        packed,
    };
    let rows: fn(&Job, usize, usize) = if portable_only { rows_portable } else { rows };
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if flops < PAR_FLOPS {
        return rows(&job, 0, m);
    }
    let threads = Pool::global().threads();
    let tiles = m.div_ceil(MR);
    let blocks = tiles.min(BLOCKS_PER_THREAD * threads);
    if threads == 1 || blocks < 2 {
        return rows(&job, 0, m);
    }
    let block_rows = tiles.div_ceil(blocks) * MR;
    Pool::global().run(m.div_ceil(block_rows), &|i| {
        rows(&job, i * block_rows, ((i + 1) * block_rows).min(m));
    });
}

dual_compiled! {
    /// Rows `i0..i1` of `C`, one `k` block and column panel at a time.
    fn rows, rows_portable(job: &Job, i0: usize, i1: usize) {
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
                            1 => tile::<1>(kc, nr, a, b, c, strides),
                            2 => tile::<2>(kc, nr, a, b, c, strides),
                            3 => tile::<3>(kc, nr, a, b, c, strides),
                            4 => tile::<4>(kc, nr, a, b, c, strides),
                            5 => tile::<5>(kc, nr, a, b, c, strides),
                            _ => tile::<MR>(kc, nr, a, b, c, strides),
                        }
                    }
                }
            }
        }
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
unsafe fn tile<const R: usize>(
    kc: usize,
    nr: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    (a_rs, a_cs, b_rs, c_rs): (usize, usize, usize, usize),
) {
    if nr == NR {
        return full_tile::<R>(kc, a, b, c, (a_rs, a_cs, b_rs, c_rs));
    }
    // The columns beyond `nr` start at zero, collect products with the
    // zero padding of the packed panel, and are dropped.
    let mut wide = [[0.0f32; NR]; R];
    for (r, row) in wide.iter_mut().enumerate() {
        std::ptr::copy_nonoverlapping(c.add(r * c_rs), row.as_mut_ptr(), nr);
    }
    full_tile::<R>(kc, a, b, wide.as_mut_ptr().cast(), (a_rs, a_cs, b_rs, NR));
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
unsafe fn full_tile<const R: usize>(
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
    use rand::{Rng, SeedableRng};

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::randn(r, c, 1.0, &mut rng)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// All three variants of the `m×k · k×n` product against the naive
    /// definition, bit for bit.
    fn assert_variants_match_naive(m: usize, k: usize, n: usize, seed: u64) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let want = bits(&matmul_naive(&a, &b));
        let shape = format!("{m}x{k}x{n}");
        assert_eq!(bits(&matmul(&a, &b)), want, "matmul {shape}");
        assert_eq!(
            bits(&matmul_tn(&a.transpose(), &b)),
            want,
            "matmul_tn {shape}"
        );
        assert_eq!(
            bits(&matmul_nt(&a, &b.transpose())),
            want,
            "matmul_nt {shape}"
        );
    }

    /// Dimensions around every blocking constant, and 0 and 1.
    const EDGES: [usize; 12] = [
        0,
        1,
        2,
        MR - 1,
        MR,
        MR + 1,
        NR - 1,
        NR,
        NR + 1,
        2 * NR + 3,
        KC - 1,
        KC + 1,
    ];

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
    fn portable_body_equals_dispatched_body() {
        for (m, k, n, seed) in [(37, 300, 45, 1), (6, 16, 16, 2), (64, 32, 64, 3)] {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed + 50);
            let mut portable = Matrix::zeros(m, n);
            gemm(a.view(), b.view().t(), portable.block_mut(0, 0, m, n), true);
            assert_eq!(bits(&portable), bits(&matmul_nt(&a, &b)));
        }
    }

    #[test]
    fn rows_are_independent_of_the_rows_around_them() {
        // Row i of A·B equals (row i of A)·B: what incremental decode ==
        // full-prefix recompute rests on.
        let a = rand_matrix(23, 70, 5);
        let b = rand_matrix(70, 50, 6);
        let full = matmul(&a, &b);
        for i in 0..a.rows() {
            let one = matmul(&a.rows_slice(i, i + 1), &b);
            assert_eq!(bits(&one), bits(&full.rows_slice(i, i + 1)), "row {i}");
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
        let scores = matmul_view(qh, kh.t());
        let copy = |m: &Matrix| m.rows_slice(s, 2 * s).columns(hd, 2 * hd);
        let want = matmul_naive(&copy(&q), &copy(&k).transpose());
        assert_eq!(bits(&scores), bits(&want));

        let mut out = Matrix::zeros(2 * s, heads * hd);
        matmul_into(scores.view(), kh, out.block_mut(s, hd, s, hd));
        let block = matmul_naive(&scores, &copy(&k));
        let want = Matrix::from_fn(2 * s, heads * hd, |r, c| {
            if r >= s && (hd..2 * hd).contains(&c) {
                block.get(r - s, c - hd)
            } else {
                0.0
            }
        });
        assert_eq!(bits(&out), bits(&want));
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
        let nn = matmul(&a, &b);
        let tn = matmul_tn(&a.transpose(), &b);
        let nt = matmul_nt(&a, &b.transpose());
        let poisoned =
            |m: &Matrix| -> Vec<bool> { m.as_slice().iter().map(|v| v.is_nan()).collect() };
        assert!(nn.get(2, 5).is_nan() && nn.get(4, 17).is_nan());
        assert_eq!(poisoned(&nn), poisoned(&tn));
        assert_eq!(poisoned(&nn), poisoned(&nt));
        assert_eq!(poisoned(&nn), poisoned(&matmul_naive(&a, &b)));
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
