//! Matrix multiplication: bf16 operands, f32 sums, over strided views — on
//! the matrix unit where the processor has one, otherwise one
//! register-blocked FMA kernel.
//!
//! **The contract.** Every operand is rounded once to bf16 by
//! [`bf16_round`] (round-to-nearest-even, a NaN stays a NaN — exactly what
//! `VCVTNE2PS2BF16` computes), and every sum is f32: the mixed precision the
//! paper's tensor cores multiply in. A product of two bf16 values is exact
//! in f32, so a term costs one rounding, where it is added. Storage, wires,
//! master weights and Adam stay f32. Two engines compute it:
//! - **The FMA builds** (baseline, AVX2, AVX-512) compute every output
//!   element as `fma(bf16(aₖ), bf16(bₖ), … fma(bf16(a₀), bf16(b₀), 0.0))` in
//!   strictly ascending `k`: no split-`k`, no per-thread partial sums, no
//!   skipped zero terms. [`matmul_naive`] is that definition written as a
//!   triple loop, and all three builds equal it bit for bit — whatever the
//!   tile an element falls in, the number of rows, the thread that computes
//!   it or which operand the kernel holds (`fma(a, b, c) == fma(b, a, c)`).
//!   IEEE fixes an `fma`'s result exactly, so `vfmadd` and libm `fmaf` agree.
//! - **The AMX build** (`crate::amx`) runs `TDPBF16PS`: `k` is cut into
//!   chunks of 32 from 0, zero-padded, and each chunk is summed in the
//!   hardware's order, which no sequential model reproduces (with one pair
//!   per lane it is `c + round(a₀b₀ + a₁b₁)`). An element's bits are a
//!   function of its row of `A`, its column of `B` and its initial value
//!   only — not of the tiling of `m` and `n`, the view, the thread, the
//!   helper split, concurrent callers or where a sub-view sits — and stay
//!   within `2·k·2⁻²⁴·Σ|terms|` of [`matmul_naive`].
//!
//! Every gate that compares two runs on one host therefore holds on either
//! engine (pipelined == serial, process == thread, chaos == fault-free,
//! recompute == caching); bits differ between a host with AMX
//! and one without, and only there. No flag picks the engine: CPUID and the
//! operating system's grant of tile state do ([`crate::Isa::active`]).
//!
//! **Two modes.** [`matmul_into`] computes `C += A·B` and [`matmul_to`]
//! computes `C = A·B`, reading nothing of `C`: the FMA builds start each
//! sum at `+0.0` in a register and the matrix unit zeroes its tiles, where
//! the first mode loads `C`. An element's arithmetic is the same either
//! way, so `matmul_to` has the bits of `matmul_into` onto a `C` of `+0.0`.
//! A product whose `C` would otherwise be zeroed first — a fresh output, a
//! weight gradient's first microbatch — is written, not summed onto zeros.
//!
//! **The FMA kernel.** Both modes take views given as `(data, row stride,
//! column stride)`, so a transposed operand or one head's columns of a
//! wider matrix is just another view: [`matmul`], [`matmul_tn`] and
//! [`matmul_nt`] are the same call with strides swapped.
//! The FMA builds first copy both operands rounded (per thread, reused).
//! Work is cut into `MR × NR` tiles of `C` whose accumulators stay in
//! registers while `k` runs (in the write mode, from `+0.0` for the first
//! `k` block and from `C` for the rest); `k` is blocked by `KC` so a panel
//! of `B` stays in cache across the row tiles that reuse it. `B` is read in
//! place when its rows are contiguous and packed into `NR`-wide panels when
//! they are not (a transposed view) or at the ragged right edge — except
//! that a deep product of a few rows by a transposed `B` is computed as
//! `Cᵀ = Bᵀ·Aᵀ`, which reads `B` in place and packs only the few rows of
//! `A`. The body is plain Rust, compiled once per instruction set
//! (`crate::simd`) with the tile width as a constant of each build — 6×16
//! for the baseline and AVX2, 6×32 under AVX-512, whose twelve 16-lane
//! accumulators fit its 32 registers — and the widest build the processor
//! runs is chosen at run time. [`matmul_into_with`] runs a named build.
//!
//! **The cost of the contract.** An x86-64 processor without FMA runs the
//! baseline build, where each term is a call to libm `fmaf`: correct, and
//! about 0.7 GFLOP/s in `tensor_engine` on the box this was measured on,
//! against 30 for that build when it rounded the product and added. No
//! judged or CI machine is such a processor; the AVX2 build (which requires
//! FMA) is the floor there.
//!
//! **Threads.** A product below `PAR_FLOPS` (the AMX build: its own, higher
//! threshold) runs on the caller. A larger one is shared: its operand
//! packing (the AMX build: groups of row tiles of `A` and of panels of `B`;
//! the FMA builds: rows of the rounded copies) and then its row blocks are
//! pieces that the caller and the parked helper threads of `crate::pool`
//! claim one at a time, while no [`crate::RankGuard`] says the host's cores
//! are taken; no thread is spawned per call. A piece writes only its own
//! part of a buffer the caller holds, and an element's bits depend on
//! neither, so a shared product has the bits of one on the caller alone.

use crate::pool::{self, Pool};
use crate::simd::{per_isa, Isa};
use crate::Matrix;
use std::marker::PhantomData;

/// Rows of `C` per register tile.
const MR: usize = 6;
/// Columns of `C` per register tile: two vectors of the build's width. Six
/// rows of two are twelve accumulators — twelve independent FMA chains, more
/// than the eight that two FMA ports of four cycles' latency keep busy —
/// which with two vectors of `B` and one broadcast of `A` fill the 16
/// registers of AVX2 and fit twice over in the 32 of AVX-512. Measured end
/// to end on the AVX-512 build (`serial_wide`, alternated pairs): the same
/// 16 columns in half the vectors ran at 0.84 of 6×32 (3 pairs, before the
/// kernel fused); eight rows of 32 — sixteen chains — are indistinguishable
/// from six, before the kernel fused (×1.02, 2 of 3) and after it (6 pairs:
/// 3 of 6, median ×1.02, range ×0.92–1.10), so `MR` stays one constant.
const fn tile_width(isa: Isa) -> usize {
    match isa {
        Isa::Baseline | Isa::Avx2 => 16,
        // The AMX build's element-wise kernels are AVX-512's; its products
        // never reach this kernel.
        Isa::Avx512 | Isa::Amx => 32,
    }
}
/// Depth of one `k` block: an `MR × KC` strip of `A` (6 KiB) and a
/// `KC × NR` panel of `B` stay in L1 under it. The panel is 16 KiB for the
/// baseline and AVX2 builds (half of a 32 KiB L1d) and 32 KiB for the
/// AVX-512 build: two thirds of the 48 KiB L1d of the processors this was
/// sized on (Sapphire Rapids), all of the 32 KiB of the first AVX-512
/// generation. `KC = 128` under the wide tile was measured here and is
/// inside the noise of 256 (`serial_wide`, alternated pairs: 2 of 4, median
/// ×0.99, with the product rounded; 8 of 12, median ×1.02, range
/// ×0.92–1.14, `iter_ms_p50` lower in 6 of 12, with it fused), so one depth
/// serves every build.
const KC: usize = 256;
/// Products of fewer floating-point operations run on the caller alone:
/// waking a parked thread costs tens of microseconds, and this much
/// arithmetic takes one thread about 60 µs on the AVX-512 build (about 100
/// on AVX2; 12 ms at the baseline, a libm call per term). Twice the
/// threshold was measured on the AVX-512 build in alternated pairs and
/// resolved nothing, with the product rounded and with it fused:
/// `serial_wide`, which issues no product between the two values, won 3 of
/// 8 (median ×0.99), then 3 of 4 (×1.02); `ptd222_thread`, whose 64×128×512
/// LM-head products sit exactly on this one, won 6 of 8 (×1.03, three at
/// ×1.15–1.21 in one session, five within ±5% in the next), then 5 of 8
/// (×1.03, range ×0.94–1.16). So it stays.
const PAR_FLOPS: usize = 1 << 23;
/// Rows of `A` up to which a product whose `B` is a transposed view (every
/// `matmul_nt`) runs transposed, `B` read in place instead of packed on
/// every call — when `C` is wider than tall and `k` is at least `KC`.
/// Measured on the AVX2 and AVX-512 builds, `_nt`, best of 20–30:
/// - At `k × n` of 256–1024 × 256–1536 (`dp2_fat`'s shapes), transposed
///   runs at ×1.1–3.0 the packed rate for 1–16 rows, ×1.02–3.0 for 20–32,
///   ×1.01–2.1 for 48 and ×0.86–1.7 for 64 (slower at `n = 256` in both
///   builds). Hence 32 rows: two AVX2 tile widths, one AVX-512.
/// - Over `k` from 8 to 512 (1–32 rows, `n` of 16–512), it runs at
///   ×0.16–0.92 the packed rate for `k` of 8–64, ×0.87–2.2 for 128 and
///   ×0.96–3.4 from 256 on: a short `k` does not pay for a tile `NR` wide
///   with `m` useful columns. Hence the `KC` floor.
const FEW_ROWS: usize = 32;
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
    /// A `rows × cols` view over `data` whose element `(i, j)` is
    /// `data[i·row_stride + j·col_stride]`; panics unless every element lies
    /// inside it.
    pub fn new(
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

    /// `(data, rows, cols, row stride, column stride)`, every element
    /// inside `data` (checked by [`View::new`]).
    pub(crate) fn parts(self) -> (&'a [f32], usize, usize, usize, usize) {
        (self.data, self.rows, self.cols, self.rs, self.cs)
    }

    /// Rows `r0..` of the view, at most `rows` of them; `r0` must be a row.
    pub(crate) fn rows_from(self, r0: usize, rows: usize) -> Self {
        assert!(r0 < self.rows, "row {r0} of {}", self.rows);
        View {
            data: &self.data[r0 * self.rs..],
            rows: rows.min(self.rows - r0),
            ..self
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
/// element `(i, j)` is `data[i·row_stride + j]`. It holds its elements as a
/// pointer, not as a slice, because views of one matrix made together —
/// attention's head blocks — interleave: each owns only the `cols` floats
/// of each of its rows, and a slice over its span would overlap the others'.
#[derive(Debug)]
pub struct ViewMut<'a> {
    data: *mut f32,
    rows: usize,
    cols: usize,
    rs: usize,
    _elements: PhantomData<&'a mut [f32]>,
}

// SAFETY: a view is made from an exclusive borrow and is the only handle to
// its elements while it lives (views made together cover disjoint
// elements), so it moves between threads as that borrow would.
unsafe impl Send for ViewMut<'_> {}

impl<'a> ViewMut<'a> {
    /// `(first element, row stride)`: rows of `cols` floats, `row stride`
    /// apart, not overlapping, which only this view writes.
    pub(crate) fn as_mut_ptr(&mut self) -> (*mut f32, usize) {
        (self.data, self.rs)
    }

    /// Row `i`'s `cols` floats.
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        // SAFETY: row `i` of the view, owned by it (`ViewMut::new`).
        unsafe { std::slice::from_raw_parts(self.data.add(i * self.rs), self.cols) }
    }

    /// Writes `src` over row `i`, whose elements need hold no value yet:
    /// they are written, not read.
    pub(crate) fn write_row(&mut self, i: usize, src: &[f32]) {
        assert!(i < self.rows, "row {i} of {}", self.rows);
        assert_eq!(src.len(), self.cols, "row width");
        // SAFETY: row `i` of the view, owned by it (`ViewMut::new`).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data.add(i * self.rs), self.cols)
        }
    }

    /// Writes `+0.0` over every element.
    fn write_zeros(&mut self) {
        for i in 0..self.rows {
            // SAFETY: row `i` of the view, owned by it; all-zero bits are
            // `+0.0`.
            unsafe { std::ptr::write_bytes(self.data.add(i * self.rs), 0, self.cols) }
        }
    }

    /// The `rows × cols` block of this view whose top-left element is
    /// `(r0, c0)`.
    ///
    /// # Safety
    /// The block lies inside the view, and while it lives nothing else
    /// reads or writes its elements.
    unsafe fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> ViewMut<'a> {
        ViewMut {
            data: self.data.add(r0 * self.rs + c0),
            rows,
            cols,
            rs: self.rs,
            _elements: PhantomData,
        }
    }

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
            data: data.as_mut_ptr(),
            rows,
            cols,
            rs: row_stride,
            _elements: PhantomData,
        }
    }

    /// Every `rows × cols` block of the view at once, for attention's
    /// heads: the view is `N` parts of equal width side by side, each a
    /// grid of blocks, and item `r·g + c` (`g` blocks across a part) holds
    /// block `(r, c)` of every part — `[q]` of one (batch, head) pair of an
    /// attention output, `[dq, dk, dv]` of a fused QKV gradient. No two
    /// views share an element, so the items may be written at once on
    /// different threads.
    pub(crate) fn blocks<const N: usize>(
        self,
        rows: usize,
        cols: usize,
    ) -> impl ExactSizeIterator<Item = [ViewMut<'a>; N]> {
        let part = self.cols / N;
        assert!(rows > 0 && cols > 0 && part.is_multiple_of(cols) && part * N == self.cols);
        assert_eq!(self.rows % rows, 0, "rows of whole blocks");
        let across = part / cols;
        (0..self.rows / rows * across).map(move |i| {
            let (r0, c0) = (i / across * rows, i % across * cols);
            // SAFETY: block `(r0, c0)` of part `p` lies inside the view
            // (asserted above), and no other item's block meets it.
            std::array::from_fn(|p| unsafe { self.block(r0, p * part + c0, rows, cols) })
        })
    }
}

/// An empty buffer with room for `len` floats, each page of which this
/// thread has touched once: fresh pages are mapped on first touch, and two
/// threads of one process taking those faults at the same time pay several
/// times what one thread pays for them in a row (a 192-row training step on
/// the AVX-512 build, 4 alternated pairs: 89 ms with the helper faulting its
/// blocks in, 72 ms without, and 1.4 times the CPU). So the caller maps a
/// product's output before a helper can see it.
pub(crate) fn room(len: usize) -> Vec<f32> {
    let mut buf = Vec::with_capacity(len);
    for page in buf.spare_capacity_mut()[..len].chunks_mut(PAGE_FLOATS) {
        page[0].write(std::hint::black_box(0.0));
    }
    buf
}

/// `buf`, cleared, becomes a `rows × cols` matrix, row by row, whose
/// elements `write` stores through the view of the whole of it that it is
/// given: nothing fills them first. `buf` grows if it must; with room
/// enough ([`room`]) nothing is allocated.
///
/// # Safety
/// `write` writes every element of the view and reads none it has not
/// written.
pub(crate) unsafe fn write_vec(
    buf: &mut Vec<f32>,
    rows: usize,
    cols: usize,
    write: impl FnOnce(ViewMut<'_>),
) {
    let len = rows * cols;
    buf.clear();
    buf.reserve(len);
    write(ViewMut {
        data: buf.as_mut_ptr(),
        rows,
        cols,
        rs: cols,
        _elements: PhantomData,
    });
    // SAFETY: `write` wrote all `len` elements (the caller's contract).
    buf.set_len(len);
}

impl Matrix {
    /// The whole matrix as a view.
    pub fn view(&self) -> View<'_> {
        View::new(self.as_slice(), self.rows(), self.cols(), self.cols(), 1)
    }

    /// The whole matrix as a writable view.
    pub fn view_mut(&mut self) -> ViewMut<'_> {
        let (rows, cols) = (self.rows(), self.cols());
        ViewMut::new(self.as_mut_slice(), rows, cols, cols)
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

/// `C += A · B` under the summation-order contract of this module.
pub fn matmul_into(a: View<'_>, b: View<'_>, c: ViewMut<'_>) {
    matmul_into_with(Isa::active(), a, b, c);
}

/// `C = A · B` under the same contract: `C` is written and never read, and
/// gets the bits [`matmul_into`] would leave in a `C` of `+0.0`.
pub fn matmul_to(a: View<'_>, b: View<'_>, c: ViewMut<'_>) {
    product(Isa::active(), a, b, c, true);
}

/// The build the dispatched kernels of this crate run on this processor and
/// its `gemm` tile, as `"avx512, 6x32"` — or `"amx, 32x32"`, the block of
/// `C` the matrix unit's 2×2 accumulator tiles hold.
pub fn active_build() -> String {
    match Isa::active() {
        Isa::Amx => "amx, 32x32".to_string(),
        isa => format!("{}, {MR}x{}", isa.name(), tile_width(isa)),
    }
}

/// `x` rounded to bfloat16 — its upper 16 bits after round-to-nearest-even —
/// and returned as the `f32` of the same value: exactly what
/// `VCVTNE2PS2BF16` computes. A subnormal becomes a zero of its sign, a NaN
/// stays a NaN (quieted, its payload cut to the upper bits), and a finite
/// value past bf16's largest rounds to infinity. Every operand of every
/// product is rounded once by this.
#[inline(always)]
pub fn bf16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    // Computed whatever `x` is, so that the choice below is a select and a
    // loop of these vectorises.
    let nearest_even = bits.wrapping_add(0x7fff + ((bits >> 16) & 1));
    let rounded = if bits & 0x7f80_0000 == 0 {
        bits & 0x8000_0000
    } else if x.is_nan() {
        bits | 0x0040_0000
    } else {
        nearest_even
    };
    f32::from_bits(rounded & 0xffff_0000)
}

/// `A · B` of two views as a new matrix, written by [`matmul_to`] into
/// memory nothing fills first ([`room`]).
pub fn matmul_view(a: View<'_>, b: View<'_>) -> Matrix {
    let mut c = room(a.rows * b.cols);
    // SAFETY: `matmul_to` writes every element of `C` and reads none.
    unsafe { write_vec(&mut c, a.rows, b.cols, |c| matmul_to(a, b, c)) };
    Matrix::from_vec(a.rows, b.cols, c)
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

/// Textbook triple loop over operands rounded to bf16, one fused
/// multiply-add per term: the definition the FMA builds equal bit for bit
/// and the AMX build is tested against.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..a.cols() {
            acc = bf16_round(a.get(i, kk)).mul_add(bf16_round(b.get(kk, j)), acc);
        }
        acc
    })
}

/// One product as the kernel sees it: raw operands whose bounds the views
/// checked, `B`'s packed panels, and whether `C` is written or summed onto.
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
    packed: *const f32,
    /// `C = A·B` ([`matmul_to`]): the first `k` block starts its sums at
    /// `+0.0` instead of loading `C`.
    write: bool,
}

// SAFETY: `a`, `b` and `packed` are only read. `c` is written, by
// `rows`, only inside the row range a thread was given, and `gemm`
// hands out disjoint ranges of non-overlapping rows (`ViewMut`'s invariant)
// while it holds the `ViewMut`'s exclusive borrow.
unsafe impl Sync for Job {}

thread_local! {
    /// The FMA builds' rounded copies of `A` and `B`, and the packed panels
    /// of `B`, kept for the next product on this thread: a product run
    /// inside a pool piece allocates nothing once its thread has warmed up.
    static ROUNDED: std::cell::Cell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
    static PANELS: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// [`matmul_into`] on the build for `isa`, which this processor must run:
/// the matrix unit under [`Isa::Amx`], otherwise the FMA kernel of that
/// instruction set with `B`'s panels as wide as its tile — the same bits
/// from every FMA build.
pub fn matmul_into_with(isa: Isa, a: View<'_>, b: View<'_>, c: ViewMut<'_>) {
    product(isa, a, b, c, false);
}

/// `C = A·B` (`write`, [`matmul_to`]) or `C += A·B` on the build for `isa`.
fn product(isa: Isa, a: View<'_>, b: View<'_>, mut c: ViewMut<'_>, write: bool) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!((c.rows, c.cols), (a.rows, b.cols), "output shape");
    assert!(
        isa <= Isa::active(),
        "this processor does not run {}",
        isa.name()
    );
    if a.rows == 0 || b.cols == 0 || a.cols == 0 {
        // A sum of no terms.
        if write {
            c.write_zeros();
        }
        return;
    }
    if isa == Isa::Amx {
        // SAFETY: `Isa::Amx` is active (asserted above).
        #[cfg(target_arch = "x86_64")]
        return unsafe { crate::amx::product(a, b, c, write) };
    }
    let shared = flops(a.rows, a.cols, b.cols) >= PAR_FLOPS;
    let (mut ra, mut rb) = ROUNDED.take();
    let (a, b) = (
        rounded(isa, a, &mut ra, shared),
        rounded(isa, b, &mut rb, shared),
    );
    fma_product(isa, a, b, c, write);
    ROUNDED.set((ra, rb));
}

/// Floating-point operations of an `m × k` by `k × n` product.
pub(crate) fn flops(m: usize, k: usize, n: usize) -> usize {
    2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k)
}

/// `v` with every element through [`bf16_round`], copied into `buf` along
/// `v`'s unit stride (its columns when only its rows are adjacent), as a
/// view of the same orientation; for a `shared` product, in pieces of rows
/// on the pool.
fn rounded<'b>(isa: Isa, v: View<'_>, buf: &'b mut Vec<f32>, shared: bool) -> View<'b> {
    let turned = v.cs != 1 && v.rs == 1;
    let w = if turned { v.t() } else { v };
    // Every element is written below; only growth is zero-filled first.
    buf.resize(w.rows * w.cols, 0.0);
    let rows = (pool::PIECE / w.cols).max(1);
    let pieces = buf.chunks_mut(rows * w.cols);
    let values = if shared { w.rows * w.cols } else { 0 };
    pool::each(values, pieces.len(), pieces.enumerate(), |(p, piece)| {
        for (i, out) in (p * rows..).zip(piece.chunks_exact_mut(w.cols)) {
            if w.cs == 1 {
                round_into_with(isa, &w.data[i * w.rs..][..w.cols], out);
            } else {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = bf16_round(w.data[i * w.rs + j * w.cs]);
                }
            }
        }
    });
    let copy = View::new(buf, w.rows, w.cols, w.cols, 1);
    if turned {
        copy.t()
    } else {
        copy
    }
}

per_isa! {
    /// `out[i] = bf16_round(src[i])`, at the build's vector width.
    fn round_into_with[_ISA](src: &[f32], out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(src) {
            *o = bf16_round(x);
        }
    }
}

/// The FMA kernel on operands already rounded.
fn fma_product(isa: Isa, a: View<'_>, b: View<'_>, c: ViewMut<'_>, write: bool) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if b.cs != 1 && m <= FEW_ROWS && n > m && k >= KC {
        return matmul_transposed(isa, a, b, c, write);
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
    let mut packed = PANELS.take();
    packed.clear();
    packed.resize((panels - first_packed) * k * nr, 0.0);
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
        c: c.data,
        c_rs: c.rs,
        nr,
        first_packed,
        packed: packed.as_ptr(),
        write,
    };
    let rows = |i0, i1| rows_with(isa, &job, i0, i1);
    let threads = Pool::global().threads();
    let tiles = m.div_ceil(MR);
    let blocks = tiles.min(BLOCKS_PER_THREAD * threads);
    if flops(m, k, n) < PAR_FLOPS || threads == 1 || blocks < 2 {
        rows(0, m);
    } else {
        let block_rows = tiles.div_ceil(blocks) * MR;
        Pool::global().run(m.div_ceil(block_rows), &|i| {
            rows(i * block_rows, ((i + 1) * block_rows).min(m));
        });
    }
    PANELS.set(packed);
}

/// `C += A·B` (or `C = A·B`) computed as `Cᵀ += Bᵀ·Aᵀ` (`Cᵀ = Bᵀ·Aᵀ` from a
/// `Cᵀ` of zeros), for `A` of few rows and a transposed `B`: `Bᵀ` becomes
/// the kernel's `A`, read in place, and only `Aᵀ` is packed. Each term is
/// the same `fma` with its factors swapped, in the same order, so every
/// element has the same bits.
fn matmul_transposed(isa: Isa, a: View<'_>, b: View<'_>, mut c: ViewMut<'_>, write: bool) {
    let (m, n) = (a.rows, b.cols);
    let mut ct = if write {
        Matrix::zeros(n, m)
    } else {
        Matrix::from_fn(n, m, |j, i| c.row(i)[j])
    };
    fma_product(isa, b.t(), a.t(), ct.block_mut(0, 0, n, m), write);
    let (out, rs) = c.as_mut_ptr();
    for i in 0..m {
        for j in 0..n {
            // SAFETY: element `(i, j)` of `c`, which only this view writes.
            unsafe { out.add(i * rs + j).write(ct.get(j, i)) };
        }
    }
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
            // Only the first `k` block of a written product starts from zero.
            let fresh = job.write && k0 == 0;
            for panel in 0..job.n.div_ceil(NR) {
                let j0 = panel * NR;
                let nr = NR.min(job.n - j0);
                // SAFETY (both arms): row `k0` of this panel, with `kc`
                // rows of `NR` readable floats from there on — in `packed`
                // by its layout, in place because an unpacked panel has
                // `j0 + NR <= n` and unit column stride.
                let (b, b_rs) = if panel >= job.first_packed {
                    let at = (panel - job.first_packed) * job.k + k0;
                    (unsafe { job.packed.add(at * NR) }, NR)
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
                            1 => tile::<1, NR>(kc, nr, a, b, c, strides, fresh),
                            2 => tile::<2, NR>(kc, nr, a, b, c, strides, fresh),
                            3 => tile::<3, NR>(kc, nr, a, b, c, strides, fresh),
                            4 => tile::<4, NR>(kc, nr, a, b, c, strides, fresh),
                            5 => tile::<5, NR>(kc, nr, a, b, c, strides, fresh),
                            _ => tile::<MR, NR>(kc, nr, a, b, c, strides, fresh),
                        }
                    }
                }
            }
        }
    }
}

/// The AMX build's ceiling, as [`tile_peak_with`] is the FMA builds': `reps`
/// rounds of the four `TDPBF16PS` of a 2×2 tile block on operands that never
/// leave the matrix unit, each counted as 16·16·32·2 floating-point
/// operations. Returns the operations performed.
///
/// # Panics
/// If this processor does not run [`Isa::Amx`].
pub fn amx_tile_peak(reps: usize) -> usize {
    assert_eq!(Isa::active(), Isa::Amx, "this processor does not run amx");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `Isa::Amx` is active.
    return unsafe { crate::amx::tile_peak(reps) };
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!()
}

per_isa! {
    /// The micro-kernel with nothing around it, as the ceiling to read a
    /// product's rate against: one full tile whose `A` is `a`, `MR`
    /// coefficients per `k`, and whose `B` is the first `NR` of them at
    /// every `k` — operands that never leave L1 if `a` fits it. Each step
    /// advances the build's `MR × NR` sums by one fused multiply-add, as
    /// the contract has it, counted as two floating-point operations.
    /// Returns the operations performed and the sum of the tile. `a` holds
    /// at least 32 coefficients.
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
        unsafe {
            full_tile::<MR, NR>(kc, a.as_ptr(), a.as_ptr(), c.as_mut_ptr().cast(), strides, false)
        };
        (2 * MR * NR * kc, c.iter().flatten().sum())
    }
}

/// `C[..R, ..nr] += A[..R, ..kc] · B[..kc, ..NR]`, or `=` if `fresh`; a
/// ragged tile (`nr < NR`) goes through a full-width copy of its part of
/// `C`, or of zeros.
///
/// # Safety
/// With `(a_rs, a_cs, b_rs, c_rs) = strides`: `a[r·a_rs + p·a_cs]` must be
/// readable for `r < R`, `p < kc`; `b[p·b_rs .. p·b_rs + NR]` for `p < kc`;
/// and `c[r·c_rs .. r·c_rs + nr]` writable, and readable unless `fresh`,
/// for `r < R`, with `nr <= NR`.
#[inline(always)]
unsafe fn tile<const R: usize, const NR: usize>(
    kc: usize,
    nr: usize,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    (a_rs, a_cs, b_rs, c_rs): (usize, usize, usize, usize),
    fresh: bool,
) {
    if nr == NR {
        return full_tile::<R, NR>(kc, a, b, c, (a_rs, a_cs, b_rs, c_rs), fresh);
    }
    // The columns beyond `nr` start at zero, collect products with the
    // zero padding of the packed panel, and are dropped.
    let mut wide = [[0.0f32; NR]; R];
    if !fresh {
        for (r, row) in wide.iter_mut().enumerate() {
            std::ptr::copy_nonoverlapping(c.add(r * c_rs), row.as_mut_ptr(), nr);
        }
    }
    let strides = (a_rs, a_cs, b_rs, NR);
    full_tile::<R, NR>(kc, a, b, wide.as_mut_ptr().cast(), strides, fresh);
    for (r, row) in wide.iter().enumerate() {
        std::ptr::copy_nonoverlapping(row.as_ptr(), c.add(r * c_rs), nr);
    }
}

/// The micro-kernel: `R × NR` sums held in registers across the `kc` loop,
/// each advanced by one fused multiply-add per `k`, from `C` — or from
/// `+0.0` if `fresh` — and stored to `C`.
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
    fresh: bool,
) {
    let mut acc = [[0.0f32; NR]; R];
    if !fresh {
        for (r, row) in acc.iter_mut().enumerate() {
            *row = c.add(r * c_rs).cast::<[f32; NR]>().read_unaligned();
        }
    }
    for p in 0..kc {
        let brow = b.add(p * b_rs).cast::<[f32; NR]>().read_unaligned();
        for (r, row) in acc.iter_mut().enumerate() {
            let av = *a.add(r * a_rs + p * a_cs);
            for (o, bv) in row.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
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

    /// `got` is within `2·k·2⁻²⁴·Σ|terms|` of [`matmul_naive`] of `a` and
    /// `b`, element by element: the AMX build's accuracy contract.
    fn assert_close_to_naive(got: &Matrix, a: &Matrix, b: &Matrix, what: &str) {
        let want = matmul_naive(a, b);
        let k = a.cols();
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let terms: f64 = (0..k)
                    .map(|p| f64::from(bf16_round(a.get(i, p)) * bf16_round(b.get(p, j))).abs())
                    .sum();
                let bound = 2.0 * k as f64 * 2f64.powi(-24) * terms;
                let err = f64::from(got.get(i, j) - want.get(i, j)).abs();
                assert!(
                    err <= bound,
                    "{what} ({i}, {j}): off by {err:e}, bound {bound:e}"
                );
            }
        }
    }

    /// The three variants of the `m×k · k×n` product — as dispatched and on
    /// every build this host runs — under the contract: the FMA builds equal
    /// the naive definition bit for bit; the AMX build gives every view the
    /// same bits, each row the bits of that row alone, and stays within its
    /// bound of the naive definition; dispatch runs the active build.
    fn assert_variants_match_naive(m: usize, k: usize, n: usize, seed: u64) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed + 1);
        let (at, bt) = (a.transpose(), b.transpose());
        let want = bits(&matmul_naive(&a, &b));
        let shape = format!("{m}x{k}x{n}");
        let active = bits(&product(Isa::active(), a.view(), b.view()));
        assert_eq!(bits(&matmul(&a, &b)), active, "matmul {shape}");
        assert_eq!(bits(&matmul_tn(&at, &b)), active, "matmul_tn {shape}");
        assert_eq!(bits(&matmul_nt(&a, &bt)), active, "matmul_nt {shape}");
        for isa in builds_exercised() {
            let on = format!("{shape} on {}", isa.name());
            let nn = product(isa, a.view(), b.view());
            let tn = product(isa, at.view().t(), b.view());
            assert_eq!(bits(&tn), bits(&nn), "matmul_tn {on}");
            let nt = product(isa, a.view(), bt.view().t());
            assert_eq!(bits(&nt), bits(&nn), "matmul_nt {on}");
            if isa != Isa::Amx {
                assert_eq!(bits(&nn), want, "matmul {on}");
                continue;
            }
            assert_close_to_naive(&nn, &a, &b, &on);
            for i in (0..m).step_by(7) {
                let one = product(isa, a.block(i, 0, 1, k), b.view());
                assert_eq!(bits(&one), bits(&nn.rows_slice(i, i + 1)), "row {i} {on}");
            }
        }
    }

    /// Dimensions around every blocking constant — both tile widths, the
    /// AMX tile, block and chunk — and 0 and 1.
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

    /// `C` full of NaN, infinities and `-0.0`: a product that reads any of
    /// it shows.
    fn garbage(m: usize, n: usize) -> Matrix {
        let values = [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY];
        Matrix::from_fn(m, n, |i, j| values[(i + j) % 4])
    }

    /// The three views of an `m×k · k×n` product, on every build: written
    /// over [`garbage`] (`matmul_to`), each has the bits of the product
    /// summed onto `+0.0` (`matmul_into`).
    fn assert_written_equals_summed_onto_zeros(m: usize, k: usize, n: usize, seed: u64) {
        let (a, b) = (rand_matrix(m, k, seed), rand_matrix(k, n, seed + 1));
        let (at, bt) = (a.transpose(), b.transpose());
        for isa in builds_exercised() {
            let views = [
                ("A·B", a.view(), b.view()),
                ("Aᵀ·B", at.view().t(), b.view()),
                ("A·Bᵀ", a.view(), bt.view().t()),
            ];
            for (what, av, bv) in views {
                let mut c = garbage(m, n);
                super::product(isa, av, bv, c.block_mut(0, 0, m, n), true);
                let want = bits(&product(isa, av, bv));
                assert_eq!(bits(&c), want, "{what} {m}x{k}x{n} on {}", isa.name());
            }
        }
    }

    #[test]
    fn written_products_equal_products_summed_onto_zeros_bitwise() {
        // Every edge as `m`, against widths 16 does and does not divide and
        // depths of none, one ragged chunk and two `k` blocks; `m <= 32`
        // below `n` at `k > KC` is the FMA builds' transposed path for
        // `A·Bᵀ`.
        for (seed, &m) in EDGES.iter().enumerate() {
            for n in [1, 17, 32, 45] {
                for k in [0, 31, KC + 1] {
                    assert_written_equals_summed_onto_zeros(m, k, n, 500 + seed as u64);
                }
            }
        }
        // Shared with the helpers and on the caller alone: the same bits.
        let (m, k, n) = (200, 600, 300);
        assert!(flops(m, k, n) >= PAR_FLOPS);
        #[cfg(target_arch = "x86_64")]
        assert!(flops(m, k, n) >= crate::amx::PAR_FLOPS);
        crate::pool::with_helpers(|| assert_written_equals_summed_onto_zeros(m, k, n, 600));
        crate::pool::on_the_caller(|| assert_written_equals_summed_onto_zeros(m, k, n, 600));
    }

    #[test]
    fn few_row_products_equal_naive_bitwise_on_each_side_of_the_threshold() {
        for (seed, m) in [1, 6, 7, 16, 17, FEW_ROWS, FEW_ROWS + 1]
            .into_iter()
            .enumerate()
        {
            for (k, n) in [(KC - 1, 45), (KC, 45), (KC + 3, 2 * 32 + 3), (5, m + 1)] {
                assert_variants_match_naive(m, k, n, 300 + seed as u64);
            }
        }
    }

    #[test]
    fn every_path_rounds_each_operand_to_bf16_once() {
        // 1 + 2⁻⁸ is a tie between bf16's 1 and 1 + 2⁻⁷ and rounds to even,
        // 1; 1 + 3·2⁻⁸ is a tie that rounds to even, 1 + 2⁻⁶; 1 + 2⁻⁸ + 2⁻²⁰
        // is past the tie and rounds up to 1 + 2⁻⁷. The sum of the rounded
        // products, 1·(1 + 2⁻⁶) + (1 + 2⁻⁶)(1 + 2⁻⁷), is exact in f32, so
        // every build must return it; f32 operands would give another value.
        // Zero terms after it add nothing; `KC` of them make the depth at
        // which `matmul_nt` takes its few-row path.
        let (tie_down, tie_up, past) = (
            1.0 + 2f32.powi(-8),
            1.0 + 3.0 * 2f32.powi(-8),
            1.0 + 2f32.powi(-8) + 2f32.powi(-20),
        );
        assert_eq!(bf16_round(tie_down), 1.0);
        assert_eq!(bf16_round(tie_up), 1.0 + 2f32.powi(-6));
        assert_eq!(bf16_round(past), 1.0 + 2f32.powi(-7));
        let (lhs, col) = ([tie_down, tie_up], [tie_up, past]);
        let want = 2.0 + 2f32.powi(-5) + 2f32.powi(-7) + 2f32.powi(-13);
        assert_ne!(lhs[0].mul_add(col[0], lhs[1] * col[1]), want, "the probe");
        let padded = |v: [f32; 2]| (0..KC).map(|p| v.get(p).copied().unwrap_or(0.0)).collect();
        let lhs = Matrix::from_vec(1, KC, padded(lhs));
        let rhs = Matrix::from_vec(KC, 1, padded(col));
        assert_eq!(matmul_naive(&lhs, &rhs).as_slice(), [want]);
        // Three rows of `B` as `matmul_nt` takes it: the few-row path.
        let rows = Matrix::from_fn(3, KC, |_, p| rhs.get(p, 0));
        assert_eq!(matmul_nt(&lhs, &rows).as_slice(), [want; 3], "matmul_nt");
        for isa in builds_exercised() {
            let one = product(isa, lhs.view(), rhs.view());
            assert_eq!(one.as_slice(), [want], "matmul on {}", isa.name());
            let nt = product(isa, lhs.view(), rows.view().t());
            assert_eq!(nt.as_slice(), [want; 3], "matmul_nt on {}", isa.name());
        }
    }

    #[test]
    fn bf16_round_is_the_processors_conversion() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512bf16") {
            // Every 251st bit pattern, then the cases between: ties of both
            // parities, the values around them, subnormals, infinities and
            // NaN payloads of both signs.
            let mut probes: Vec<u32> = (0..=u32::MAX).step_by(251).collect();
            for hi in (0u32..0x1_0000).step_by(3) {
                for lo in [0, 1, 0x7fff, 0x8000, 0x8001, 0xffff] {
                    probes.push(hi << 16 | lo);
                }
            }
            probes.extend([
                0x0000_0001,
                0x007f_ffff,
                0x8040_0000,
                0x7f80_0000,
                0xff80_0000,
            ]);
            probes.extend([
                0x7f80_0001,
                0x7fbf_ffff,
                0x7fc0_0000,
                0xffff_ffff,
                0xff80_8001,
            ]);
            for chunk in probes.chunks(32) {
                let xs: Vec<f32> = chunk.iter().map(|&b| f32::from_bits(b)).collect();
                // SAFETY: the processor has `avx512bf16` (checked above).
                let hw = unsafe { hardware_bf16(&xs) };
                for (&x, h) in xs.iter().zip(hw) {
                    let ours = bf16_round(x).to_bits() >> 16;
                    assert_eq!(ours, u32::from(h), "{:#010x}", x.to_bits());
                }
            }
            return;
        }
        println!("bf16_round not checked against VCVTNE2PS2BF16: no avx512bf16 here");
    }

    /// `VCVTNE2PS2BF16` of up to 32 floats.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bf16")]
    unsafe fn hardware_bf16(xs: &[f32]) -> Vec<u16> {
        use std::arch::x86_64::*;
        let mut src = [0.0f32; 32];
        src[..xs.len()].copy_from_slice(xs);
        let (lo, hi) = (
            _mm512_loadu_ps(src.as_ptr()),
            _mm512_loadu_ps(src[16..].as_ptr()),
        );
        let out: [u16; 32] = std::mem::transmute(_mm512_cvtne2ps_pbh(hi, lo));
        out[..xs.len()].to_vec()
    }

    #[test]
    fn helper_threads_do_not_change_bits() {
        // Large enough to be cut into row blocks (and, on a machine with
        // more than one core, shared with the helpers) by the FMA builds,
        // then by the AMX build, whose rows a row at a time compute alone.
        let (m, k, n) = (203, KC + 37, 131);
        assert!(2 * m * k * n >= PAR_FLOPS);
        assert_variants_match_naive(m, k, n, 21);
        let (m, k, n) = (320, 4 * KC, 416);
        #[cfg(target_arch = "x86_64")]
        assert!(2 * m * k * n >= crate::amx::PAR_FLOPS);
        let (a, b) = (rand_matrix(m, k, 22), rand_matrix(k, n, 23));
        for isa in builds_exercised().into_iter().filter(|&i| i == Isa::Amx) {
            let whole = product(isa, a.view(), b.view());
            for i in 0..m {
                let one = product(isa, a.block(i, 0, 1, k), b.view());
                assert_eq!(bits(&one), bits(&whole.rows_slice(i, i + 1)), "row {i}");
            }
        }
    }

    /// A shared product — its operand packing (AMX) or rounded copies (FMA)
    /// and its tile blocks cut into pieces on the pool — has the bits of
    /// the same product with every piece on the caller, on every build:
    /// plain, `_tn` and `_nt` views, `m` and `n` that 16 does not divide.
    #[test]
    fn shared_products_equal_their_caller_only_run_bitwise() {
        let (m, k, n) = (200, 600, 300);
        assert!(flops(m, k, n) >= PAR_FLOPS);
        #[cfg(target_arch = "x86_64")]
        assert!(flops(m, k, n) >= crate::amx::PAR_FLOPS);
        let (a, b) = (rand_matrix(m, k, 31), rand_matrix(k, n, 32));
        let (at, bt) = (a.transpose(), b.transpose());
        for isa in builds_exercised() {
            let views = [
                ("A·B", a.view(), b.view()),
                ("Aᵀ·B", at.view().t(), b.view()),
                ("A·Bᵀ", a.view(), bt.view().t()),
            ];
            for (what, av, bv) in views {
                let shared = crate::pool::with_helpers(|| product(isa, av, bv));
                let alone = crate::pool::on_the_caller(|| product(isa, av, bv));
                assert_eq!(bits(&shared), bits(&alone), "{what} on {}", isa.name());
            }
        }
    }

    #[test]
    fn eight_concurrent_callers_get_the_bits_of_one_caller() {
        // One job slot: most of these find it taken and run serially, one
        // at a time shares its blocks with the helpers; each thread packs
        // into buffers and configures tiles of its own. Each caller's
        // products must have the bits they have alone.
        let gate = std::sync::Barrier::new(8);
        let case = |t: u64, rep: u64| {
            let seed = 40 + 8 * rep + t;
            let a = rand_matrix(150 + t as usize, KC + 9, seed);
            let b = rand_matrix(KC + 9, 140, seed + 1);
            let (at, bt) = (a.transpose(), b.transpose());
            builds_exercised()
                .into_iter()
                .map(|isa| {
                    let nn = product(isa, a.view(), b.view());
                    let tn = product(isa, at.view().t(), b.view());
                    let nt = product(isa, a.view(), bt.view().t());
                    [bits(&nn), bits(&tn), bits(&nt)]
                })
                .collect::<Vec<_>>()
        };
        let alone: Vec<Vec<_>> = (0..8)
            .map(|t| (0..3).map(|rep| case(t, rep)).collect())
            .collect();
        std::thread::scope(|s| {
            for (t, want) in alone.iter().enumerate() {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    for (rep, want) in want.iter().enumerate() {
                        assert!(case(t as u64, rep as u64) == *want, "caller {t} rep {rep}");
                    }
                });
            }
        });
        assert_variants_match_naive(157, KC + 9, 140, 61);
    }

    #[test]
    fn every_fma_build_equals_the_baseline_build() {
        for (m, k, n, seed) in [
            (37, 300, 45, 1),
            (6, 16, 16, 2),
            (6, 32, 32, 3),
            (64, 32, 64, 4),
        ] {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed + 50);
            let baseline = bits(&product(Isa::Baseline, a.view(), b.view().t()));
            for isa in builds_exercised().into_iter().filter(|&i| i != Isa::Amx) {
                let got = product(isa, a.view(), b.view().t());
                assert_eq!(bits(&got), baseline, "{}", isa.name());
            }
        }
    }

    #[test]
    fn integer_products_equal_naive_bitwise_on_every_build() {
        // Small integers are exact in bf16 and every partial sum of these
        // is exact in f32, whatever order a build adds them in.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for (m, k, n) in [(33, 300, 47), (16, 32, 16), (1, 65, 3), (70, 7, 33)] {
            let mut int = |r, c| Matrix::from_fn(r, c, |_, _| rng.gen_range(-8i32..=8) as f32);
            let (a, b) = (int(m, k), int(k, n));
            let want = bits(&matmul_naive(&a, &b));
            for isa in builds_exercised() {
                let got = product(isa, a.view(), b.view());
                assert_eq!(bits(&got), want, "{m}x{k}x{n} on {}", isa.name());
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
            packed: std::ptr::null(),
            write: false,
        };
        rows_with(Isa::Baseline, &job, 0, 1);
    }

    #[test]
    fn rows_are_independent_of_the_rows_around_them() {
        // Row i of A·B equals (row i of A)·B: an element's bits depend
        // only on its row of A, its column of B and its initial value in C,
        // never on the rows computed beside it.
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
        // columns of the output: the bits of the same product on copies.
        let (s, hd, heads) = (9, 5, 3);
        let q = rand_matrix(2 * s, heads * hd, 7);
        let k = rand_matrix(2 * s, heads * hd, 8);
        let (qh, kh) = (q.block(s, hd, s, hd), k.block(s, hd, s, hd));
        let copy = |m: &Matrix| m.rows_slice(s, 2 * s).columns(hd, 2 * hd);
        for isa in builds_exercised() {
            let (qc, kc) = (copy(&q), copy(&k));
            let want_scores = product(isa, qc.view(), kc.view().t());
            let block = product(isa, want_scores.view(), kc.view());
            let want_out = Matrix::from_fn(2 * s, heads * hd, |r, c| {
                if r >= s && (hd..2 * hd).contains(&c) {
                    block.get(r - s, c - hd)
                } else {
                    0.0
                }
            });
            let scores = product(isa, qh, kh.t());
            assert_eq!(bits(&scores), bits(&want_scores), "{}", isa.name());
            let mut out = Matrix::zeros(2 * s, heads * hd);
            matmul_into_with(isa, scores.view(), kh, out.block_mut(s, hd, s, hd));
            assert_eq!(bits(&out), bits(&want_out), "{}", isa.name());
            if isa != Isa::Amx {
                assert_eq!(
                    bits(&want_scores),
                    bits(&matmul_naive(&qc, &kc.transpose()))
                );
            }
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
    fn views_with_no_unit_stride_equal_the_product_of_copies() {
        // Every other row and column of a wider buffer: neither operand is
        // contiguous along either axis, the packers' general path.
        let (m, k, n) = (19, 45, 37);
        let wide_a = rand_matrix(2 * m, 2 * k, 13);
        let wide_b = rand_matrix(2 * k, 2 * n, 14);
        let a = View::new(wide_a.as_slice(), m, k, 4 * k, 2);
        let b = View::new(wide_b.as_slice(), k, n, 4 * n, 2);
        let a_copy = Matrix::from_fn(m, k, |i, p| wide_a.get(2 * i, 2 * p));
        let b_copy = Matrix::from_fn(k, n, |p, j| wide_b.get(2 * p, 2 * j));
        for isa in builds_exercised() {
            let want = product(isa, a_copy.view(), b_copy.view());
            assert_eq!(bits(&product(isa, a, b)), bits(&want), "{}", isa.name());
            let (at, bt) = (a_copy.transpose(), b_copy.transpose());
            let strided_t = product(isa, b.t(), a.t());
            assert_eq!(bits(&strided_t), bits(&product(isa, bt.view(), at.view())));
        }
    }

    #[test]
    fn active_build_names_the_instruction_set_and_its_tile() {
        let known = ["baseline, 6x16", "avx2, 6x16", "avx512, 6x32", "amx, 32x32"];
        let build = active_build();
        assert!(known.contains(&build.as_str()), "{build}");
        assert!(build.starts_with(Isa::active().name()), "{build}");
    }

    #[test]
    fn identity_returns_the_rounded_operand() {
        let a = rand_matrix(6, 6, 7);
        let rounded = Matrix::from_fn(6, 6, |r, c| bf16_round(a.get(r, c)));
        assert_ne!(rounded, a);
        let eye = Matrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        for isa in builds_exercised() {
            assert_eq!(
                product(isa, a.view(), eye.view()),
                rounded,
                "{}",
                isa.name()
            );
            assert_eq!(
                product(isa, eye.view(), a.view()),
                rounded,
                "{}",
                isa.name()
            );
        }
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
