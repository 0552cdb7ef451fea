//! Register-blocked `f32x8` micro-kernels shared by the GEMM entry points.
//!
//! The old axpy kernel touched every `C` element once per `kk` step: one
//! load, one multiply-add, one store — so the inner loop was C-bandwidth
//! bound. The micro-kernels here block `C` into register tiles of
//! [`MR`] rows x 16 columns (two [`f32x8`] registers per row), load the
//! tile once per K-tile, stream `B` through it, and store once: the
//! same `B` row load now feeds `MR` rows of accumulators and `C`
//! traffic drops by a factor of the K-tile length.
//!
//! Bit-identity contract (the training goldens depend on it): for every
//! `C` element the `kk` accumulation order is ascending and sequential,
//! multiplies and adds round separately (`wide`'s shim guarantees no FMA
//! contraction), and horizontal reductions fold exactly like
//! `iter().sum::<f32>()`. Consequently every kernel here is bit-identical
//! to the scalar references in [`crate::gemm`] and to
//! [`crate::gemm::matmul_naive`].

use wide::f32x8;

/// Rows per register block: 4 rows x 2 vectors = 8 live accumulators,
/// comfortably inside the 16 architectural vector registers with room
/// for the two `B` loads and the broadcast `A` coefficient.
pub(crate) const MR: usize = 4;

/// Update `rows` panel rows over the K-range `k0..kmax`:
/// `C[r, j] += sum_kk coef(r, kk) * B[kk, j]` for `j in 0..n`.
///
/// `coef(r, kk)` abstracts the (already alpha-scaled) `A` operand so the
/// same micro-kernel serves `gemm` (row-major `A`) and `gemm_tn`
/// (column-strided `A^T`); `r` is panel-relative.
#[inline(always)]
pub(crate) fn panel_update<F: Fn(usize, usize) -> f32>(
    coef: &F,
    b: &[f32],
    n: usize,
    k0: usize,
    kmax: usize,
    c_panel: &mut [f32],
    rows: usize,
) {
    let mut r0 = 0;
    while r0 + MR <= rows {
        row_block::<MR, F>(coef, b, n, k0, kmax, c_panel, r0);
        r0 += MR;
    }
    match rows - r0 {
        3 => row_block::<3, F>(coef, b, n, k0, kmax, c_panel, r0),
        2 => row_block::<2, F>(coef, b, n, k0, kmax, c_panel, r0),
        1 => row_block::<1, F>(coef, b, n, k0, kmax, c_panel, r0),
        _ => {}
    }
}

/// One `M`-row register block: 16-wide column tiles, then one 8-wide
/// tile, then a scalar column tail. Every path accumulates `kk`
/// ascending per element.
#[inline(always)]
fn row_block<const M: usize, F: Fn(usize, usize) -> f32>(
    coef: &F,
    b: &[f32],
    n: usize,
    k0: usize,
    kmax: usize,
    c_panel: &mut [f32],
    r0: usize,
) {
    let mut j0 = 0;
    while j0 + 16 <= n {
        let mut acc = [[f32x8::ZERO; 2]; M];
        for (r, a) in acc.iter_mut().enumerate() {
            let base = (r0 + r) * n + j0;
            a[0] = f32x8::from_slice(&c_panel[base..base + 8]);
            a[1] = f32x8::from_slice(&c_panel[base + 8..base + 16]);
        }
        for kk in k0..kmax {
            let bbase = kk * n + j0;
            let b0 = f32x8::from_slice(&b[bbase..bbase + 8]);
            let b1 = f32x8::from_slice(&b[bbase + 8..bbase + 16]);
            for (r, a) in acc.iter_mut().enumerate() {
                let av = f32x8::splat(coef(r0 + r, kk));
                a[0] += av * b0;
                a[1] += av * b1;
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let base = (r0 + r) * n + j0;
            a[0].write_to_slice(&mut c_panel[base..base + 8]);
            a[1].write_to_slice(&mut c_panel[base + 8..base + 16]);
        }
        j0 += 16;
    }
    if j0 + 8 <= n {
        let mut acc = [f32x8::ZERO; M];
        for (r, a) in acc.iter_mut().enumerate() {
            let base = (r0 + r) * n + j0;
            *a = f32x8::from_slice(&c_panel[base..base + 8]);
        }
        for kk in k0..kmax {
            let bbase = kk * n + j0;
            let b0 = f32x8::from_slice(&b[bbase..bbase + 8]);
            for (r, a) in acc.iter_mut().enumerate() {
                *a += f32x8::splat(coef(r0 + r, kk)) * b0;
            }
        }
        for (r, a) in acc.iter().enumerate() {
            let base = (r0 + r) * n + j0;
            a.write_to_slice(&mut c_panel[base..base + 8]);
        }
        j0 += 8;
    }
    for j in j0..n {
        for r in 0..M {
            let mut cv = c_panel[(r0 + r) * n + j];
            for kk in k0..kmax {
                cv += coef(r0 + r, kk) * b[kk * n + j];
            }
            c_panel[(r0 + r) * n + j] = cv;
        }
    }
}

std::thread_local! {
    /// Per-thread scratch for the `gemm_nt` transposed-`B` tile. Grows to
    /// the largest `k * n` seen on this thread and is then reused, so the
    /// steady-state training loop stays allocation-free (the root
    /// `zero_alloc` test counts allocs per step after warmup).
    static NT_SCRATCH: core::cell::RefCell<Vec<f32>> = const { core::cell::RefCell::new(Vec::new()) };
}

/// Pack `b` (`n x k`, row-major) into transposed 8x8 tiles in a
/// thread-local scratch and hand the packed slice to `f`.
///
/// Layout: for column block `jb` (8 adjacent `j`) and K-chunk `c`
/// (8 adjacent `p`), the 64-float tile at `(jb * (k/8) + c) * 64` holds
/// `tile[q * 8 + dj] = B[jb*8 + dj, c*8 + q]`. A j-block's tiles are
/// contiguous in `c`, so [`nt_row_t`]'s inner loop walks one flat run
/// with a single bounds check per tile and constant sub-offsets. Only
/// full 8x8 tiles are packed; `k % 8` and `n % 8` remainders read the
/// original `b`.
///
/// The borrow is held across `f`, which may run a rayon region reading
/// the slice; nested `gemm_nt` calls on *other* threads hit their own
/// thread-local, so the `RefCell` borrow never conflicts.
pub(crate) fn with_packed<R>(b: &[f32], n: usize, k: usize, f: impl FnOnce(&[f32]) -> R) -> R {
    NT_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let kc = k / 8;
        let nb = n / 8;
        let len = nb * kc * 64;
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let pack = &mut buf[..len];
        if len == 0 {
            return f(pack);
        }
        for (jb, jpack) in pack.chunks_exact_mut(kc * 64).enumerate() {
            let rows = &b[jb * 8 * k..(jb * 8 + 8) * k];
            for (c, tile) in jpack.chunks_exact_mut(64).enumerate() {
                for dj in 0..8 {
                    let src = &rows[dj * k + c * 8..dj * k + c * 8 + 8];
                    for q in 0..8 {
                        tile[q * 8 + dj] = src[q];
                    }
                }
            }
        }
        f(pack)
    })
}

/// One `gemm_nt` output row against the packed tiles from
/// [`with_packed`]: `C[j] += alpha * dot(arow, B[j, :])` for all `j`,
/// in the *phase-accumulator* form of the lane-grouped dot product.
///
/// Bit-identity with [`crate::gemm::dot`]: the dot's accumulator lane
/// `l` holds `sum_c a[8c+l] * b[8c+l]`. Here phase accumulator `ph_l`
/// (one vector spanning 8 adjacent `j`) holds exactly that lane for each
/// `j` — the same multiplies and adds in the same order, just batched
/// across columns. Folding `ph_0..ph_7` left-to-right from `+0.0`
/// reproduces `reduce_add`'s lane fold, and the `k % 8` tail accumulates
/// separately and is added last, exactly like `dot`. Nothing here needs
/// a horizontal reduction, which is what made the dot-form kernel slow.
#[inline(always)]
pub(crate) fn nt_row_t(
    alpha: f32,
    arow: &[f32],
    pack: &[f32],
    b: &[f32],
    k: usize,
    c_row: &mut [f32],
) {
    let n = c_row.len();
    let kc = k / 8;
    let kchunks = kc * 8;
    let av = f32x8::splat(alpha);
    let nblocks = n / 8;
    for jb in 0..nblocks {
        let mut ph0 = f32x8::ZERO;
        let mut ph1 = f32x8::ZERO;
        let mut ph2 = f32x8::ZERO;
        let mut ph3 = f32x8::ZERO;
        let mut ph4 = f32x8::ZERO;
        let mut ph5 = f32x8::ZERO;
        let mut ph6 = f32x8::ZERO;
        let mut ph7 = f32x8::ZERO;
        let jtiles = &pack[jb * kc * 64..(jb + 1) * kc * 64];
        for (c, tile) in jtiles.chunks_exact(64).enumerate() {
            let ac = &arow[c * 8..c * 8 + 8];
            ph0 += f32x8::splat(ac[0]) * f32x8::from_slice(&tile[0..8]);
            ph1 += f32x8::splat(ac[1]) * f32x8::from_slice(&tile[8..16]);
            ph2 += f32x8::splat(ac[2]) * f32x8::from_slice(&tile[16..24]);
            ph3 += f32x8::splat(ac[3]) * f32x8::from_slice(&tile[24..32]);
            ph4 += f32x8::splat(ac[4]) * f32x8::from_slice(&tile[32..40]);
            ph5 += f32x8::splat(ac[5]) * f32x8::from_slice(&tile[40..48]);
            ph6 += f32x8::splat(ac[6]) * f32x8::from_slice(&tile[48..56]);
            ph7 += f32x8::splat(ac[7]) * f32x8::from_slice(&tile[56..64]);
        }
        // Lane fold in `reduce_add` order, leading +0.0 included (it
        // flips an all-(-0.0) sum to +0.0 exactly like `Sum<f32>`).
        let folded = (((((((f32x8::ZERO + ph0) + ph1) + ph2) + ph3) + ph4) + ph5) + ph6) + ph7;
        // Tail phase over `k % 8`: accumulated separately, added after
        // the lane fold, matching `dot`'s `acc.iter().sum() + tail`.
        // Reads the original row-major `B` (tails are not packed).
        let j = jb * 8;
        let mut tail = f32x8::ZERO;
        for pp in kchunks..k {
            let ap = f32x8::splat(arow[pp]);
            tail += ap
                * f32x8::new([
                    b[j * k + pp],
                    b[(j + 1) * k + pp],
                    b[(j + 2) * k + pp],
                    b[(j + 3) * k + pp],
                    b[(j + 4) * k + pp],
                    b[(j + 5) * k + pp],
                    b[(j + 6) * k + pp],
                    b[(j + 7) * k + pp],
                ]);
        }
        let dots = folded + tail;
        let cv = f32x8::from_slice(&c_row[j..j + 8]) + av * dots;
        cv.write_to_slice(&mut c_row[j..j + 8]);
    }
    // Remainder columns: plain dots against the original row-major `B`.
    for (jj, cv) in c_row.iter_mut().enumerate().skip(nblocks * 8) {
        *cv += alpha * crate::gemm::dot(arow, &b[jj * k..(jj + 1) * k]);
    }
}
