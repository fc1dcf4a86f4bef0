//! The AMX build of `gemm`: `C += A·B` and `C = A·B` on the matrix unit,
//! `TDPBF16PS` over bf16 operands with f32 sums.
//!
//! **Layout.** `A` is packed as bf16 rows of `kp` elements — `k` rounded up
//! to a chunk of 32, zero beyond `k` — and `16·⌈m/16⌉` rows. `B` is packed
//! as panels of 16 columns (zero beyond `n`) in the VNNI order a tile
//! multiply reads: row `p` of a panel holds, for each of its
//! columns, the pair `(b[2p], b[2p+1])`. One tile of `A` is 16 rows × one
//! chunk, one tile of `B` is 16 pair-rows × one panel, and one `TDPBF16PS`
//! adds their product to a 16×16 tile of `C`.
//!
//! **What fixes the bits.** `k` is cut into chunks of 32 from 0, and every
//! chunk is one `TDPBF16PS` whatever `k` is; an element of `C` is its
//! initial value plus each chunk's sum, chunk after chunk, as the unit sums
//! them. Nothing about the tiling of `m` and `n`, the view an operand came
//! in, the thread or the rest of the rows enters an element's arithmetic.
//!
//! **Tiles.** A block of 32 rows of `C` is computed as 2×2 accumulator tiles
//! (`tmm0`–`tmm3`), two tiles of `A` (`tmm4`, `tmm5`) and two of `B`
//! (`tmm6`, `tmm7`) per chunk; a block or panel pair with one tile of rows
//! or columns uses the 1×2, 2×1 or 1×1 subset. `C` is loaded into the tiles
//! in place when 16 divides `m` and `n`, and through a staged copy
//! otherwise; a product that writes `C` (`gemm::matmul_to`) zeroes the
//! tiles instead (`tilezero`) and reads nothing of `C`, copying nothing
//! into the staged copy. Every run of blocks configures the tiles on entry
//! and releases them before it returns, so a thread — the caller or a pool
//! helper — holds no tile state between products.
//!
//! The tile instructions are written in `asm!`: rustc has no stable AMX
//! target feature, and no Rust code of this crate touches a tile register
//! between the blocks that use them.

use crate::gemm::{View, ViewMut};
use crate::pool::Pool;
use std::arch::asm;
use std::arch::x86_64::*;
use std::cell::Cell;

/// Rows and columns of a tile of `C`.
const TILE: usize = 16;
/// `k` per `TDPBF16PS`: 16 pairs.
const CHUNK: usize = 32;
/// Rows of `C` one block of work covers: two tiles.
const BLOCK: usize = 2 * TILE;
/// Products of fewer floating-point operations run on the caller alone. At
/// the FMA builds' threshold (2²³) the matrix unit finishes a product in a
/// few microseconds, less than waking a helper costs. Measured end to end
/// on a 2-vCPU Sapphire Rapids guest, `serial_wide` (the only workload with
/// products above 2²⁶: 75–100 MFLOP), 16 alternated pairs in both orders:
/// sharing from 2²⁶ won 12 of 16 against sharing from 2²⁸ (never, there),
/// median `tokens_per_s` ×1.07, `cpu_s_per_ktok` ×1.03. The products timed
/// alone (best of 200) favoured 2²⁸ in one hour and 2²⁶ in the next: the
/// guest's matrix unit read 2014 GFLOP/s on one thread and 1790 on two in
/// the first, 936 and 1830 in the second. Re-measured once a shared
/// product's operand packing ran on the pool too: sharing from 2²⁴ (which
/// adds `serial_wide`'s 25–50 MFLOP attention-projection and LM-head
/// products) read `iter_ms_p50` ×1.005 and `cpu_s_per_ktok` ×1.013 against
/// 2²⁶ over 10 alternated pairs, so the threshold stays.
pub(crate) const PAR_FLOPS: usize = 1 << 26;
/// `u16`s per tile row: 64 bytes.
const ROW: usize = 32;

/// One tile row, on a cache line of its own: a tile row that straddles two
/// lines loads at a fraction of the rate.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u16; ROW]);

thread_local! {
    /// Packed `A`, packed `B` and the staged `C` of this thread's last
    /// product, kept for the next one.
    static PACKED_A: Cell<Vec<Line>> = const { Cell::new(Vec::new()) };
    static PACKED_B: Cell<Vec<Line>> = const { Cell::new(Vec::new()) };
    static STAGED_C: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `buf` grown to at least `len` `u16`s (a multiple of a line), as a slice
/// of exactly `len`.
fn lines(buf: &mut Vec<Line>, len: usize) -> &mut [u16] {
    if buf.len() < len / ROW {
        buf.resize(len / ROW, Line([0; ROW]));
    }
    // SAFETY: `Line` is `ROW` `u16`s with no padding; `buf` holds at least
    // `len / ROW` of them.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), len) }
}

/// The tile configuration every product runs under: palette 1, all eight
/// tiles 16 rows of 64 bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

const CONFIG: TileConfig = {
    let mut cfg = [0u8; 64];
    cfg[0] = 1;
    let mut t = 0;
    while t < 8 {
        cfg[16 + 2 * t] = 64;
        cfg[48 + t] = 16;
        t += 1;
    }
    TileConfig(cfg)
};

/// Configures the tiles for the life of the value and releases them when it
/// drops, on every path out of a block.
struct Tiles;

impl Tiles {
    /// # Safety
    /// The processor must run the AMX build and this process hold the
    /// operating system's grant for tile data (`Isa::Amx` is active).
    unsafe fn configure() -> Tiles {
        asm!("ldtilecfg [{}]", in(reg) &CONFIG, options(nostack, readonly));
        Tiles
    }
}

impl Drop for Tiles {
    fn drop(&mut self) {
        // SAFETY: the tiles were configured by `configure`.
        unsafe { asm!("tilerelease", options(nostack, nomem)) };
    }
}

/// One product as the blocks see it: packed operands, where `C` is and
/// whether it is written or summed onto.
struct Job {
    /// Row tiles and column panels.
    mt: usize,
    nt: usize,
    /// Chunks of `k`.
    chunks: usize,
    a: *const u16,
    b: *const u16,
    c: *mut f32,
    /// `C`'s row stride in bytes.
    c_stride: usize,
    /// `C = A·B`: the accumulator tiles start at `+0.0`, not at `C`.
    write: bool,
}

// SAFETY: `a` and `b` are only read. `c` is written by `block` only in the
// rows of the block it was given, and `product` hands out disjoint
// blocks of a `C` whose rows do not overlap while it holds its exclusive
// borrow.
unsafe impl Sync for Job {}

/// `C = A·B` (`write`) or `C += A·B` on the matrix unit.
///
/// # Safety
/// `Isa::Amx` must be active.
pub(crate) unsafe fn product(a: View<'_>, b: View<'_>, mut c: ViewMut<'_>, write: bool) {
    let ((_, m, k, _, _), (_, _, n, _, _)) = (a.parts(), b.parts());
    let (mt, nt, chunks) = (m.div_ceil(TILE), n.div_ceil(TILE), k.div_ceil(CHUNK));
    let kp = chunks * CHUNK;
    let shared = crate::gemm::flops(m, k, n) >= PAR_FLOPS;
    let mut pa = PACKED_A.take();
    let mut pb = PACKED_B.take();
    let mut staged = STAGED_C.take();
    let (a_packed, b_packed) = (
        lines(&mut pa, mt * TILE * kp),
        lines(&mut pb, nt * TILE * kp),
    );
    if shared {
        pack_shared(a, b, kp, (&mut *a_packed, &mut *b_packed));
    } else {
        pack_a(a, kp, a_packed);
        pack_b(b, kp, b_packed);
    }
    let in_place = m % TILE == 0 && n % TILE == 0;
    let (cp, cp_rs) = if in_place {
        c.as_mut_ptr()
    } else {
        // Padding rows and columns hold whatever the last product left:
        // an element's sum reads only its own row and column, and these
        // are never copied back.
        let w = nt * TILE;
        staged.resize(mt * TILE * w, 0.0);
        if !write {
            for (i, dst) in staged.chunks_exact_mut(w).take(m).enumerate() {
                dst[..n].copy_from_slice(c.row(i));
            }
        }
        (staged.as_mut_ptr(), w)
    };
    let job = Job {
        mt,
        nt,
        chunks,
        a: a_packed.as_ptr(),
        b: b_packed.as_ptr(),
        c: cp,
        c_stride: 4 * cp_rs,
        write,
    };
    let blocks = m.div_ceil(BLOCK);
    if shared {
        // SAFETY: each block once, disjoint rows of `C`.
        Pool::global().run(blocks, &|i| unsafe { blocks_of(&job, i, i + 1) });
    } else {
        // SAFETY: every block of this product, on this thread.
        unsafe { blocks_of(&job, 0, blocks) };
    }
    if !in_place {
        let w = nt * TILE;
        for (i, src) in staged.chunks_exact(w).take(m).enumerate() {
            c.write_row(i, &src[..n]);
        }
    }
    PACKED_A.set(pa);
    PACKED_B.set(pb);
    STAGED_C.set(staged);
}

/// Packs `a` into `a_dst` and `b` into `b_dst` ([`pack_a`], [`pack_b`]) in
/// pieces of whole row tiles of `A` and whole panels of `B` on the pool, for
/// a shared product. A piece packs the sub-view its tiles or panels come
/// from, into the lines the whole operand's packing puts them in. (A
/// product that is not shared packs each operand whole: cut into pieces on
/// one thread, `dp2_fat`'s products took ×1.02–1.03 the CPU.)
fn pack_shared(a: View<'_>, b: View<'_>, kp: usize, (a_dst, b_dst): (&mut [u16], &mut [u16])) {
    // Tiles (of `A`) or panels (of `B`) per piece: `16·kp` values each.
    let group = (crate::pool::PIECE / (TILE * kp)).max(1);
    let values = a_dst.len() + b_dst.len();
    let a_pieces = a_dst.chunks_mut(group * TILE * kp).enumerate();
    let b_pieces = b_dst.chunks_mut(group * TILE * kp).enumerate();
    let count = a_pieces.len() + b_pieces.len();
    let pieces = a_pieces
        .map(|(g, d)| (true, g, d))
        .chain(b_pieces.map(|(g, d)| (false, g, d)));
    crate::pool::each(values, count, pieces, |(of_a, g, dst)| {
        let first = g * group * TILE;
        if of_a {
            pack_a(a.rows_from(first, group * TILE), kp, dst);
        } else {
            pack_b(b.t().rows_from(first, group * TILE).t(), kp, dst);
        }
    });
}

/// Row blocks `b0..b1` of `job`, under a tile configuration of their own.
///
/// # Safety
/// As [`product`], with `job` describing live buffers; no other thread
/// writes these rows of `C` meanwhile.
unsafe fn blocks_of(job: &Job, b0: usize, b1: usize) {
    let _tiles = Tiles::configure();
    let a_stride = 2 * job.chunks * CHUNK;
    let panel = job.chunks * TILE * ROW;
    for blk in b0..b1 {
        let t0 = 2 * blk;
        let rt = (job.mt - t0).min(2);
        let a = job.a.add(t0 * TILE * job.chunks * CHUNK);
        let c_row = job.c.byte_add(t0 * TILE * job.c_stride);
        for p0 in (0..job.nt).step_by(2) {
            let ct = (job.nt - p0).min(2);
            let b = job.b.add(p0 * panel);
            let c = c_row.add(p0 * TILE);
            let shape = Shape {
                a_stride,
                b_next: panel,
                c_stride: job.c_stride,
                write: job.write,
            };
            match (rt, ct) {
                (2, 2) => tile_block::<2, 2>(a, b, c, job.chunks, shape),
                (2, _) => tile_block::<2, 1>(a, b, c, job.chunks, shape),
                (_, 2) => tile_block::<1, 2>(a, b, c, job.chunks, shape),
                _ => tile_block::<1, 1>(a, b, c, job.chunks, shape),
            }
        }
    }
}

/// Strides of one tile block: `A`'s rows in bytes, the `u16`s from one
/// panel of `B` to the next, `C`'s rows in bytes; and whether the block
/// writes `C` rather than summing onto it.
#[derive(Clone, Copy)]
struct Shape {
    a_stride: usize,
    b_next: usize,
    c_stride: usize,
    write: bool,
}

/// `C[..16·RT, ..16·CT] += A[..16·RT, ..] · B[.., ..16·CT]` over `chunks`
/// chunks — `=` if `write` — : `A` from `a` (rows `a_stride` bytes apart),
/// `B`'s panels from `b` (`b_next` apart), `C` at `c`.
///
/// # Safety
/// Tiles configured; `16·RT` packed rows of `A` and `CT` packed panels of
/// `chunks` chunks readable there; `16·RT` rows of `16·CT` floats of `C`,
/// `c_stride` bytes apart, writable, and readable unless `write`.
#[inline(always)]
unsafe fn tile_block<const RT: usize, const CT: usize>(
    a: *const u16,
    b: *const u16,
    c: *mut f32,
    chunks: usize,
    Shape {
        a_stride,
        b_next,
        c_stride,
        write,
    }: Shape,
) {
    let a1 = a.byte_add(TILE * a_stride);
    let b1 = b.add(b_next);
    let c01 = c.add(TILE);
    let c10 = c.byte_add(TILE * c_stride);
    let c11 = c10.add(TILE);
    // The accumulators start at `+0.0` for a written `C`, at `C` otherwise.
    if write {
        asm!("tilezero tmm0", options(nostack, nomem));
    } else {
        asm!("tileloadd tmm0, [{c} + {cs}]", c = in(reg) c, cs = in(reg) c_stride,
            options(nostack, readonly));
    }
    if CT == 2 && write {
        asm!("tilezero tmm1", options(nostack, nomem));
    } else if CT == 2 {
        asm!("tileloadd tmm1, [{c} + {cs}]", c = in(reg) c01, cs = in(reg) c_stride,
            options(nostack, readonly));
    }
    if RT == 2 && write {
        asm!("tilezero tmm2", options(nostack, nomem));
    } else if RT == 2 {
        asm!("tileloadd tmm2, [{c} + {cs}]", c = in(reg) c10, cs = in(reg) c_stride,
            options(nostack, readonly));
    }
    if RT == 2 && CT == 2 && write {
        asm!("tilezero tmm3", options(nostack, nomem));
    } else if RT == 2 && CT == 2 {
        asm!("tileloadd tmm3, [{c} + {cs}]", c = in(reg) c11, cs = in(reg) c_stride,
            options(nostack, readonly));
    }
    let b_stride = 2 * ROW;
    for q in 0..chunks {
        let (a0, a1) = (a.add(q * CHUNK), a1.add(q * CHUNK));
        let (b0, b1) = (b.add(q * TILE * ROW), b1.add(q * TILE * ROW));
        match (RT, CT) {
            (2, 2) => asm!(
                "tileloadd tmm4, [{a0} + {as}]",
                "tileloadd tmm6, [{b0} + {bs}]",
                "tdpbf16ps tmm0, tmm4, tmm6",
                "tileloadd tmm7, [{b1} + {bs}]",
                "tdpbf16ps tmm1, tmm4, tmm7",
                "tileloadd tmm5, [{a1} + {as}]",
                "tdpbf16ps tmm2, tmm5, tmm6",
                "tdpbf16ps tmm3, tmm5, tmm7",
                a0 = in(reg) a0, a1 = in(reg) a1, b0 = in(reg) b0, b1 = in(reg) b1,
                as = in(reg) a_stride, bs = in(reg) b_stride,
                options(nostack, readonly)
            ),
            (2, _) => asm!(
                "tileloadd tmm4, [{a0} + {as}]",
                "tileloadd tmm6, [{b0} + {bs}]",
                "tdpbf16ps tmm0, tmm4, tmm6",
                "tileloadd tmm5, [{a1} + {as}]",
                "tdpbf16ps tmm2, tmm5, tmm6",
                a0 = in(reg) a0, a1 = in(reg) a1, b0 = in(reg) b0,
                as = in(reg) a_stride, bs = in(reg) b_stride,
                options(nostack, readonly)
            ),
            (_, 2) => asm!(
                "tileloadd tmm4, [{a0} + {as}]",
                "tileloadd tmm6, [{b0} + {bs}]",
                "tdpbf16ps tmm0, tmm4, tmm6",
                "tileloadd tmm7, [{b1} + {bs}]",
                "tdpbf16ps tmm1, tmm4, tmm7",
                a0 = in(reg) a0, b0 = in(reg) b0, b1 = in(reg) b1,
                as = in(reg) a_stride, bs = in(reg) b_stride,
                options(nostack, readonly)
            ),
            _ => asm!(
                "tileloadd tmm4, [{a0} + {as}]",
                "tileloadd tmm6, [{b0} + {bs}]",
                "tdpbf16ps tmm0, tmm4, tmm6",
                a0 = in(reg) a0, b0 = in(reg) b0,
                as = in(reg) a_stride, bs = in(reg) b_stride,
                options(nostack, readonly)
            ),
        }
    }
    asm!("tilestored [{c} + {cs}], tmm0", c = in(reg) c, cs = in(reg) c_stride,
        options(nostack));
    if CT == 2 {
        asm!("tilestored [{c} + {cs}], tmm1", c = in(reg) c01, cs = in(reg) c_stride,
            options(nostack));
    }
    if RT == 2 {
        asm!("tilestored [{c} + {cs}], tmm2", c = in(reg) c10, cs = in(reg) c_stride,
            options(nostack));
    }
    if RT == 2 && CT == 2 {
        asm!("tilestored [{c} + {cs}], tmm3", c = in(reg) c11, cs = in(reg) c_stride,
            options(nostack));
    }
}

/// Packs `a` (`m × k`) into `dst`: `16·⌈m/16⌉` rows of `kp` bf16, zero
/// beyond `k`. Rows from `m` on feed only padding rows of `C`, which are
/// never copied out, and may keep what the last product left. Rows read
/// along their unit stride go straight through the conversion; a
/// transposed view (`_tn`'s `A`) is converted one pair of its columns at a
/// time and turned by 16×16 transposes.
fn pack_a(a: View<'_>, kp: usize, dst: &mut [u16]) {
    let (data, m, k, rs, cs) = a.parts();
    if cs == 1 || k == 1 {
        for (i, row) in dst.chunks_exact_mut(kp).take(m).enumerate() {
            // SAFETY: row `i < m` of `a`, `k` floats from `i·rs` on.
            unsafe { convert_line(data.as_ptr().add(i * rs), k, row) };
        }
    } else if rs == 1 {
        for (t, tile) in dst.chunks_exact_mut(TILE * kp).enumerate() {
            let rows = m.saturating_sub(t * TILE).min(TILE);
            for q in 0..kp / CHUNK {
                // SAFETY: rows `t·16..` of `a`, clipped to `m` and `k`; the
                // tile's 16 rows of `kp` from chunk `q` on.
                unsafe {
                    turn_a(
                        data.as_ptr().add(t * TILE),
                        rows,
                        (q * CHUNK, k, cs),
                        &mut tile[q * CHUNK..],
                        kp,
                    )
                };
            }
        }
    } else {
        for (i, row) in dst.chunks_exact_mut(kp).enumerate() {
            for (p, out) in row.iter_mut().enumerate() {
                *out = if i < m && p < k {
                    bf16_bits(data[i * rs + p * cs])
                } else {
                    0
                };
            }
        }
    }
}

/// Packs `b` (`k × n`) into `dst` as VNNI panels of 16 columns: panel `j`,
/// pair-row `p` at `(j·kp/2 + p)·32`, zero beyond `k` and `n`. Rows of `B`
/// read along their unit stride are paired by a lane interleave; a
/// transposed view (`_nt`'s `B`) is converted along `k` and turned by 16×16
/// transposes.
fn pack_b(b: View<'_>, kp: usize, dst: &mut [u16]) {
    let (data, k, n, rs, cs) = b.parts();
    let panel = kp / 2 * ROW;
    if cs == 1 || n == 1 {
        // SAFETY: `b`'s rows, `n` floats each, `rs` apart, clipped to `k`;
        // `dst` holds `⌈n/16⌉` panels.
        return unsafe { pair_rows(data.as_ptr(), (k, n, rs), dst, panel) };
    }
    for (j, out) in dst.chunks_exact_mut(panel).enumerate() {
        let (j0, cols) = (j * TILE, (n - j * TILE).min(TILE));
        if rs == 1 {
            for q in 0..kp / CHUNK {
                // SAFETY: columns `j0..j0 + cols` of `b`, clipped to `k`;
                // the panel's 16 pair-rows of chunk `q`.
                unsafe {
                    turn_b(
                        data.as_ptr().add(j0 * cs),
                        cols,
                        (q * CHUNK, k, cs),
                        &mut out[q * TILE * ROW..],
                    )
                };
            }
        } else {
            for (p, row) in out.chunks_exact_mut(ROW).enumerate() {
                for (e, v) in row.iter_mut().enumerate() {
                    let (kk, jj) = (2 * p + e % 2, j0 + e / 2);
                    *v = if kk < k && jj < n {
                        bf16_bits(data[kk * rs + jj * cs])
                    } else {
                        0
                    };
                }
            }
        }
    }
}

/// The upper half of `x`'s bits after [`crate::gemm::bf16_round`].
fn bf16_bits(x: f32) -> u16 {
    (crate::gemm::bf16_round(x).to_bits() >> 16) as u16
}

/// Lanes `0..n` set.
fn lanes(n: usize) -> __mmask16 {
    ((1u32 << n.min(16)) - 1) as __mmask16
}

/// 16 floats from `src`, lanes `n..` zero and not read.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load(src: *const f32, n: usize) -> __m512 {
    _mm512_maskz_loadu_ps(lanes(n), src)
}

/// Two vectors of 16 floats as 32 bf16, `lo` first.
#[inline]
#[target_feature(enable = "avx512f,avx512bf16")]
unsafe fn to_bf16(lo: __m512, hi: __m512) -> __m512i {
    std::mem::transmute::<__m512bh, __m512i>(_mm512_cvtne2ps_pbh(hi, lo))
}

/// `k` floats from `src` as bf16 into `dst`, zero from `k` to its end.
///
/// # Safety
/// `src[..k]` readable; `dst.len()` a multiple of 32.
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn convert_line(src: *const f32, k: usize, dst: &mut [u16]) {
    for (q, out) in dst.chunks_exact_mut(CHUNK).enumerate() {
        let k0 = q * CHUNK;
        let left = k.saturating_sub(k0);
        let v = if left == 0 {
            _mm512_setzero_si512()
        } else {
            // The second load reads nothing when `left <= 16`.
            let hi = src.wrapping_add(k0 + 16);
            to_bf16(load(src.add(k0), left), load(hi, left.saturating_sub(16)))
        };
        _mm512_storeu_si512(out.as_mut_ptr().cast(), v);
    }
}

/// Interleaves the 16-lane halves of `v` (`[x₀..x₁₅, y₀..y₁₅]` as 16-bit
/// lanes) into pairs `[x₀, y₀, x₁, y₁, …]`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn interleave(v: __m512i) -> __m512i {
    let idx = _mm512_set_epi16(
        31, 15, 30, 14, 29, 13, 28, 12, 27, 11, 26, 10, 25, 9, 24, 8, 23, 7, 22, 6, 21, 5, 20, 4,
        19, 3, 18, 2, 17, 1, 16, 0,
    );
    _mm512_permutexvar_epi16(idx, v)
}

/// VNNI panels of `B` (`k × n`, rows `rs` apart from `src`): rows `2p` and
/// `2p + 1` interleaved into pair-row `p` of every panel, zero beyond `k`
/// and `n`. Rows outside in, so that `B` is read in the order it lies.
///
/// # Safety
/// `src[r·rs .. r·rs + n]` readable for `r < k`; `dst` holds `⌈n/16⌉`
/// panels of `panel` `u16`s, each a multiple of 32.
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn pair_rows(
    src: *const f32,
    (k, n, rs): (usize, usize, usize),
    dst: &mut [u16],
    panel: usize,
) {
    let pairs = panel / ROW;
    for p in 0..pairs {
        // Rows from `k` on are read as no lanes: zeros.
        let (r0, r1) = (2 * p, 2 * p + 1);
        let (w0, w1) = (if r0 < k { n } else { 0 }, if r1 < k { n } else { 0 });
        let (row0, row1) = (src.wrapping_add(r0 * rs), src.wrapping_add(r1 * rs));
        for j in 0..n.div_ceil(TILE) {
            let j0 = j * TILE;
            let lo = load(row0.wrapping_add(j0), w0.saturating_sub(j0));
            let hi = load(row1.wrapping_add(j0), w1.saturating_sub(j0));
            let out = dst.as_mut_ptr().add(j * panel + p * ROW);
            _mm512_storeu_si512(out.cast(), interleave(to_bf16(lo, hi)));
        }
    }
}

/// One chunk of one row tile of `_tn`'s `A`: `A(i, kk)` is `src[i + kk·cs]`
/// for the tile's `rows` rows; its chunk from `k0` is written as rows `i`
/// of `dst`, `kp` apart, zero beyond `rows` and `k`.
///
/// # Safety
/// `src[i + kk·cs]` readable for `i < rows`, `kk < k`; `dst` holds 16 rows
/// of `kp` from its start.
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn turn_a(
    src: *const f32,
    rows: usize,
    (k0, k, cs): (usize, usize, usize),
    dst: &mut [u16],
    kp: usize,
) {
    // Pair `p` of every row: lane `i` is `(A(i, k0 + 2p), A(i, k0 + 2p + 1))`;
    // columns from `k` on are read as no lanes: zeros.
    let mut v = [_mm512_setzero_si512(); 16];
    for (p, pair) in v.iter_mut().enumerate() {
        let (c0, c1) = (k0 + 2 * p, k0 + 2 * p + 1);
        let lo = load(src.wrapping_add(c0 * cs), if c0 < k { rows } else { 0 });
        let hi = load(src.wrapping_add(c1 * cs), if c1 < k { rows } else { 0 });
        *pair = interleave(to_bf16(lo, hi));
    }
    transpose_store(v, dst, kp);
}

/// One chunk of one panel of `_nt`'s `B`: `B(kk, j)` is `src[kk + j·cs]`
/// for the panel's `cols` columns; its chunk from `k0` is written as the
/// panel's 16 pair-rows of `dst`, zero beyond `cols` and `k`.
///
/// # Safety
/// `src[kk + j·cs]` readable for `j < cols`, `kk < k`; `dst` holds 16 rows
/// of 32 from its start.
#[target_feature(enable = "avx512f,avx512bw,avx512bf16")]
unsafe fn turn_b(
    src: *const f32,
    cols: usize,
    (k0, k, cs): (usize, usize, usize),
    dst: &mut [u16],
) {
    let left = k - k0;
    // Column `j` along the chunk: lane `p` is `(B(k0 + 2p, j), B(k0 + 2p + 1, j))`.
    let mut v = [_mm512_setzero_si512(); 16];
    for (j, line) in v.iter_mut().enumerate().take(cols) {
        let at = src.add(j * cs + k0);
        let hi = at.wrapping_add(16);
        *line = to_bf16(load(at, left), load(hi, left.saturating_sub(16)));
    }
    transpose_store(v, dst, ROW);
}

/// Stores the 16×16 transpose of `v` (32-bit lanes) as 16 rows of `dst`,
/// `stride` `u16`s apart: lane `r` of row `l` goes to lane `l` of row `r`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_store(v: [__m512i; 16], dst: &mut [u16], stride: usize) {
    assert!(dst.len() >= 15 * stride + ROW, "transpose past its buffer");
    // Interleave 32-bit lanes of row pairs, then 64-bit lanes of pairs of
    // those, then gather 128-bit lanes across the groups of four twice.
    let mut t = [_mm512_setzero_si512(); 16];
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_epi32(v[2 * i], v[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_epi32(v[2 * i], v[2 * i + 1]);
    }
    let mut u = [_mm512_setzero_si512(); 16];
    for i in 0..4 {
        let (a, b, c, d) = (t[4 * i], t[4 * i + 1], t[4 * i + 2], t[4 * i + 3]);
        u[4 * i] = _mm512_unpacklo_epi64(a, c);
        u[4 * i + 1] = _mm512_unpackhi_epi64(a, c);
        u[4 * i + 2] = _mm512_unpacklo_epi64(b, d);
        u[4 * i + 3] = _mm512_unpackhi_epi64(b, d);
    }
    for i in 0..4 {
        t[i] = _mm512_shuffle_i32x4::<0x88>(u[i], u[4 + i]);
        t[4 + i] = _mm512_shuffle_i32x4::<0xdd>(u[i], u[4 + i]);
        t[8 + i] = _mm512_shuffle_i32x4::<0x88>(u[8 + i], u[12 + i]);
        t[12 + i] = _mm512_shuffle_i32x4::<0xdd>(u[8 + i], u[12 + i]);
    }
    for i in 0..8 {
        let lo = _mm512_shuffle_i32x4::<0x88>(t[i], t[8 + i]);
        let hi = _mm512_shuffle_i32x4::<0xdd>(t[i], t[8 + i]);
        _mm512_storeu_si512(dst.as_mut_ptr().add(i * stride).cast(), lo);
        _mm512_storeu_si512(dst.as_mut_ptr().add((8 + i) * stride).cast(), hi);
    }
}

/// The matrix unit with nothing around it, as the ceiling to read a
/// product's rate against: `reps` rounds of the 2×2 block's four
/// `TDPBF16PS` on tiles that never leave the unit, each counted as
/// 16·16·32·2 floating-point operations. Returns the operations performed.
///
/// # Safety
/// `Isa::Amx` must be active.
pub(crate) unsafe fn tile_peak(reps: usize) -> usize {
    let _tiles = Tiles::configure();
    let ones = [0x3f80u16; TILE * ROW];
    let src = ones.as_ptr();
    asm!(
        "tilezero tmm0",
        "tilezero tmm1",
        "tilezero tmm2",
        "tilezero tmm3",
        "tileloadd tmm4, [{s} + {st}]",
        "tileloadd tmm5, [{s} + {st}]",
        "tileloadd tmm6, [{s} + {st}]",
        "tileloadd tmm7, [{s} + {st}]",
        s = in(reg) src, st = in(reg) 2 * ROW, options(nostack, readonly)
    );
    for _ in 0..reps {
        asm!(
            "tdpbf16ps tmm0, tmm4, tmm6",
            "tdpbf16ps tmm1, tmm4, tmm7",
            "tdpbf16ps tmm2, tmm5, tmm6",
            "tdpbf16ps tmm3, tmm5, tmm7",
            options(nostack, nomem)
        );
    }
    reps * 4 * TILE * TILE * CHUNK * 2
}
