//! Matrix multiplication: a thread-parallel blocked implementation plus a
//! naive reference used to validate it.

use crate::Matrix;

/// Split `out` into `n`-wide rows and run `body(row_index, row)` on each,
/// fanning rows out across up to `available_parallelism` scoped threads.
/// Each row is written by exactly one thread, so results are bit-identical
/// to a serial loop regardless of thread count.
fn par_rows(out: &mut [f32], n: usize, body: impl Fn(usize, &mut [f32]) + Sync) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(rows.max(1));
    if threads <= 1 || rows <= 1 {
        for (i, row) in out.chunks_mut(n).enumerate() {
            body(i, row);
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let body = &body;
            scope.spawn(move || {
                for (j, row) in chunk.chunks_mut(n).enumerate() {
                    body(chunk_idx * rows_per + j, row);
                }
            });
        }
    });
}

/// `C = A · B` (`m×k` times `k×n`), parallelized over row blocks.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    par_rows(&mut out, n, |i, row| {
        let arow = a.row(i);
        // k-inner loop ordered for sequential access of B's rows.
        for (kk, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    });
    Matrix::from_vec(m, n, out)
}

/// `C = Aᵀ · B` (`k×m`ᵀ times `k×n`) without materializing the transpose.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "outer dimensions must agree");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    // Parallelize over output rows (columns of A).
    par_rows(&mut out, n, |i, row| {
        for kk in 0..k {
            let av = a.get(kk, i);
            if av == 0.0 {
                continue;
            }
            let brow = b.row(kk);
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    });
    Matrix::from_vec(m, n, out)
}

/// `C = A · Bᵀ` (`m×k` times `n×k`ᵀ) without materializing the transpose.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    let (m, _k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    par_rows(&mut out, n, |i, row| {
        let arow = a.row(i);
        for (j, o) in row.iter_mut().enumerate() {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for (av, bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    });
    Matrix::from_vec(m, n, out)
}

/// Textbook triple loop, for validation.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|kk| a.get(i, kk) * b.get(kk, j)).sum()
    })
}
