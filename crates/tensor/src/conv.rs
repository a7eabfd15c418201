//! `im2col` / `col2im` lowering for 2-D convolutions.
//!
//! Convolution over an `N × C × H × W` batch is lowered to a matrix product:
//! each receptive field becomes a column of a `(C·KH·KW) × (N·OH·OW)` matrix,
//! so convolution is `weights(OC × C·KH·KW) · columns`, and the backward pass
//! with respect to the input is `col2im` of `weightsᵀ · grad_columns`.
//!
//! Both lowerings parallelise over disjoint output regions — `im2col` over
//! matrix rows (one per `(c, kh, kw)` tap), `col2im` over images — so no
//! element is ever written by two threads and the per-element accumulation
//! order matches the serial loop exactly. Results are bitwise identical for
//! every thread count.

use rayon::prelude::*;

use crate::{Tensor, TensorError};

/// Minimum output elements before the lowering fans out across threads.
const PAR_MIN_ELEMS: usize = 32 * 1024;

/// Static geometry of a 2-D convolution: kernel, stride and zero padding.
///
/// # Example
///
/// ```
/// use taamr_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 3, 1, 1);
/// assert_eq!(g.output_hw(32, 32), (32, 32)); // "same" conv
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any of `kernel_h`, `kernel_w`, or `stride` is zero.
    pub fn new(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel_h > 0 && kernel_w > 0, "kernel dims must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dGeometry { kernel_h, kernel_w, stride, padding }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel_h && pw >= self.kernel_w,
            "input {h}x{w} (padded {ph}x{pw}) smaller than kernel {}x{}",
            self.kernel_h,
            self.kernel_w
        );
        ((ph - self.kernel_h) / self.stride + 1, (pw - self.kernel_w) / self.stride + 1)
    }
}

/// The in-bounds output-column band of kernel column `kw`: returns
/// `(shift, ox_lo, ox_hi)` such that the input column `ix = ox·stride +
/// shift` lies inside `[0, w)` exactly for `ox` in `[ox_lo, ox_hi)`
/// (`ox_lo == ox_hi` when the tap only ever reads padding).
fn tap_band(kw: usize, geom: &Conv2dGeometry, w: usize, ow: usize) -> (isize, usize, usize) {
    let stride = geom.stride;
    let shift = kw as isize - geom.padding as isize;
    let ox_lo = if shift >= 0 { 0 } else { ((-shift) as usize).div_ceil(stride) }.min(ow);
    let last_ix = w as isize - 1 - shift;
    let ox_hi = if last_ix < 0 { 0 } else { (last_ix as usize / stride + 1).min(ow) };
    (shift, ox_lo, ox_hi.max(ox_lo))
}

/// Lowers an `N × C × H × W` input into the column matrix used by a
/// GEMM-based convolution.
///
/// The result has shape `(C·KH·KW) × (N·OH·OW)`, with columns ordered by
/// `(n, oh, ow)` row-major.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `input` is not rank-4.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros(&[0]);
    im2col_into(input, geom, &mut out)?;
    Ok(out)
}

/// Allocation-free [`im2col`]: lowers into `out`, reshaping it in place and
/// reusing its allocation when large enough.
///
/// Identical results and column ordering to [`im2col`]; this is the variant
/// the conv layers call with a [`ConvScratch`](crate::ConvScratch)-style
/// reusable buffer so repeated forward passes stop allocating.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `input` is not rank-4.
pub fn im2col_into(
    input: &Tensor,
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    taamr_obs::incr(taamr_obs::Counter::Im2colCalls);
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch { op: "im2col", expected: 4, actual: input.rank() });
    }
    let [n, c, h, w] = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
    let (oh, ow) = geom.output_hw(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * oh * ow;
    // Single-pass fill: every element of every row is written below (padding
    // zeros inline), so the buffer only needs the right shape, not a
    // whole-matrix memset first. The earlier two-pass version (zero
    // everything, then overwrite the in-bounds taps) cost ~35% extra on the
    // stride-1 conv shapes.
    out.reset_for_overwrite(&[rows, cols]);
    let src = input.as_slice();
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let (kernel_h, kernel_w) = (geom.kernel_h, geom.kernel_w);

    // Fills the matrix row for one `(c, kh, kw)` tap, writing all `cols`
    // elements exactly once. Pure writes into a region owned by exactly one
    // caller, so serial and parallel execution produce identical bytes.
    let fill_row = |row: usize, dst_row: &mut [f32]| {
        let kw = row % kernel_w;
        let kh = (row / kernel_w) % kernel_h;
        let ci = row / (kernel_h * kernel_w);
        // Everything outside the tap's band is zero padding.
        let (shift, ox_lo, ox_hi) = tap_band(kw, geom, w, ow);
        for ni in 0..n {
            let img_base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                let iy = (oy * stride) as isize + kh as isize - pad;
                let col_base = (ni * oh + oy) * ow;
                let dst = &mut dst_row[col_base..col_base + ow];
                if iy < 0 || iy >= h as isize {
                    dst.fill(0.0);
                    continue;
                }
                let src_row = img_base + iy as usize * w;
                dst[..ox_lo].fill(0.0);
                dst[ox_hi..].fill(0.0);
                if ox_lo < ox_hi {
                    if stride == 1 {
                        let ix0 = (ox_lo as isize + shift) as usize;
                        dst[ox_lo..ox_hi]
                            .copy_from_slice(&src[src_row + ix0..src_row + ix0 + (ox_hi - ox_lo)]);
                    } else {
                        for (ox, slot) in dst[..ox_hi].iter_mut().enumerate().skip(ox_lo) {
                            let ix = (ox * stride) as isize + shift;
                            *slot = src[src_row + ix as usize];
                        }
                    }
                }
            }
        }
    };

    let dst = out.as_mut_slice();
    if rayon::current_num_threads() > 1 && rows > 1 && rows * cols >= PAR_MIN_ELEMS {
        dst.par_chunks_mut(cols)
            .enumerate()
            .for_each(|(row, dst_row)| fill_row(row, dst_row));
    } else {
        for (row, dst_row) in dst.chunks_mut(cols).enumerate() {
            fill_row(row, dst_row);
        }
    }
    Ok(())
}

/// Adjoint of [`im2col`]: scatters a column matrix back into an
/// `N × C × H × W` tensor, accumulating overlapping contributions.
///
/// This is exactly the gradient of `im2col` and is used in the convolution
/// backward pass.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have the
/// `(C·KH·KW) × (N·OH·OW)` shape implied by `dims` and `geom`, or
/// [`TensorError::RankMismatch`] if `cols` is not rank-2.
pub fn col2im(
    cols: &Tensor,
    dims: &[usize; 4],
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros(&[0]);
    col2im_into(cols, dims, geom, &mut out)?;
    Ok(out)
}

/// Allocation-free [`col2im`]: scatters into `out`, reshaping it in place
/// and reusing its allocation when large enough. Identical results to
/// [`col2im`].
///
/// # Errors
///
/// Same errors as [`col2im`].
pub fn col2im_into(
    cols: &Tensor,
    dims: &[usize; 4],
    geom: &Conv2dGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    taamr_obs::incr(taamr_obs::Counter::Col2imCalls);
    if cols.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "col2im", expected: 2, actual: cols.rank() });
    }
    let [n, c, h, w] = *dims;
    let (oh, ow) = geom.output_hw(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let ncols = n * oh * ow;
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: vec![rows, ncols],
            rhs: cols.dims().to_vec(),
        });
    }
    out.reset_to_zeros(&[n, c, h, w]);
    let src = cols.as_slice();
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let (kernel_h, kernel_w) = (geom.kernel_h, geom.kernel_w);

    // Scatters all taps of one image. Overlapping receptive fields only
    // collide *within* an image, and the `ci → kh → kw → oy → ox` order
    // fixes each pixel's accumulation sequence, so per-image parallelism is
    // exact.
    //
    // Within one tap every pixel receives at most one contribution (`ix` is
    // injective in `ox`), so walking only the tap's in-bounds band
    // `[ox_lo, ox_hi)` — a slice add at stride 1 — keeps that sequence.
    let scatter_image = |ni: usize, img: &mut [f32]| {
        for ci in 0..c {
            let chan_base = ci * h * w;
            for kh in 0..kernel_h {
                for kw in 0..kernel_w {
                    let (shift, ox_lo, ox_hi) = tap_band(kw, geom, w, ow);
                    if ox_lo == ox_hi {
                        continue;
                    }
                    let row_base = ((ci * kernel_h + kh) * kernel_w + kw) * ncols;
                    for oy in 0..oh {
                        let iy = (oy * stride) as isize + kh as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = chan_base + iy as usize * w;
                        let col_base = row_base + (ni * oh + oy) * ow;
                        let band = &src[col_base + ox_lo..col_base + ox_hi];
                        let ix0 = ((dst_row + ox_lo * stride) as isize + shift) as usize;
                        if stride == 1 {
                            for (d, &v) in img[ix0..ix0 + band.len()].iter_mut().zip(band) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in img[ix0..].iter_mut().step_by(stride).zip(band) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    };

    let dst = out.as_mut_slice();
    let image_len = c * h * w;
    if rayon::current_num_threads() > 1 && n > 1 && n * image_len >= PAR_MIN_ELEMS {
        dst.par_chunks_mut(image_len)
            .enumerate()
            .for_each(|(ni, img)| scatter_image(ni, img));
    } else {
        for (ni, img) in dst.chunks_mut(image_len).enumerate() {
            scatter_image(ni, img);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_formulas() {
        assert_eq!(Conv2dGeometry::new(3, 3, 1, 1).output_hw(32, 32), (32, 32));
        assert_eq!(Conv2dGeometry::new(3, 3, 2, 1).output_hw(32, 32), (16, 16));
        assert_eq!(Conv2dGeometry::new(1, 1, 1, 0).output_hw(7, 5), (7, 5));
        assert_eq!(Conv2dGeometry::new(2, 2, 2, 0).output_hw(4, 4), (2, 2));
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn output_hw_panics_when_kernel_too_large() {
        Conv2dGeometry::new(5, 5, 1, 0).output_hw(3, 3);
    }

    #[test]
    fn im2col_identity_kernel_is_flatten() {
        // 1x1 kernel, stride 1, no padding: columns are just pixels.
        let input = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let geom = Conv2dGeometry::new(1, 1, 1, 0);
        let cols = im2col(&input, &geom).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), input.as_slice());
    }

    #[test]
    fn im2col_known_values_with_padding() {
        // Single 2x2 image, 3x3 kernel, pad 1 => 4 output positions.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let geom = Conv2dGeometry::new(3, 3, 1, 1);
        let cols = im2col(&input, &geom).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Center tap (kh=1, kw=1) row index 4 should reproduce the image.
        let row4 = &cols.as_slice()[4 * 4..5 * 4];
        assert_eq!(row4, &[1.0, 2.0, 3.0, 4.0]);
        // Top-left tap (kh=0, kw=0) sees padding except at output (1,1).
        let row0 = &cols.as_slice()[0..4];
        assert_eq!(row0, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn conv_via_gemm_matches_direct_convolution() {
        use crate::{gemm, Transpose};
        // Direct convolution reference.
        let n = 2;
        let (c, h, w) = (3, 5, 5);
        let oc = 4;
        let geom = Conv2dGeometry::new(3, 3, 2, 1);
        let input = Tensor::from_vec(
            (0..n * c * h * w).map(|i| ((i * 31 % 17) as f32 - 8.0) / 8.0).collect(),
            &[n, c, h, w],
        )
        .unwrap();
        let weight = Tensor::from_vec(
            (0..oc * c * 9).map(|i| ((i * 13 % 11) as f32 - 5.0) / 5.0).collect(),
            &[oc, c * 9],
        )
        .unwrap();
        let (oh, ow) = geom.output_hw(h, w);

        let cols = im2col(&input, &geom).unwrap();
        let mut out = Tensor::zeros(&[oc, n * oh * ow]);
        gemm(1.0, &weight, Transpose::No, &cols, Transpose::No, 0.0, &mut out).unwrap();

        // Direct reference.
        for ni in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = 0.0;
                        for ci in 0..c {
                            for kh in 0..3usize {
                                for kw in 0..3usize {
                                    let iy = (oy * 2 + kh) as isize - 1;
                                    let ix = (ox * 2 + kw) as isize - 1;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    s += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[o, (ci * 3 + kh) * 3 + kw]);
                                }
                            }
                        }
                        let got = out.at(&[o, (ni * oh + oy) * ow + ox]);
                        assert!((got - s).abs() < 1e-4, "{got} vs {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let dims = [2usize, 3, 6, 6];
        let geom = Conv2dGeometry::new(3, 3, 2, 1);
        let x = Tensor::from_vec(
            (0..dims.iter().product::<usize>())
                .map(|i| ((i * 7 % 23) as f32 - 11.0) / 11.0)
                .collect(),
            &dims,
        )
        .unwrap();
        let cols_shape = im2col(&x, &geom).unwrap();
        let y = Tensor::from_vec(
            (0..cols_shape.len()).map(|i| ((i * 5 % 19) as f32 - 9.0) / 9.0).collect(),
            cols_shape.dims(),
        )
        .unwrap();
        let lhs = im2col(&x, &geom).unwrap().dot(&y);
        let rhs = x.dot(&col2im(&y, &dims, &geom).unwrap());
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn into_variants_match_allocating_api_and_reuse_buffers() {
        let dims = [2usize, 3, 6, 6];
        let geom = Conv2dGeometry::new(3, 3, 2, 1);
        let x = Tensor::from_vec(
            (0..dims.iter().product::<usize>()).map(|i| (i as f32 * 0.11).cos()).collect(),
            &dims,
        )
        .unwrap();
        let fresh_cols = im2col(&x, &geom).unwrap();
        let mut cols = Tensor::zeros(&[0]);
        im2col_into(&x, &geom, &mut cols).unwrap();
        assert_eq!(cols, fresh_cols);

        let fresh_img = col2im(&cols, &dims, &geom).unwrap();
        let mut img = Tensor::zeros(&[0]);
        col2im_into(&cols, &dims, &geom, &mut img).unwrap();
        assert_eq!(img, fresh_img);

        // A second pass through the same shapes must not reallocate.
        let cap_cols = cols.data.capacity();
        let cap_img = img.data.capacity();
        im2col_into(&x, &geom, &mut cols).unwrap();
        col2im_into(&cols, &dims, &geom, &mut img).unwrap();
        assert_eq!(cols.data.capacity(), cap_cols);
        assert_eq!(img.data.capacity(), cap_img);
        assert_eq!(cols, fresh_cols);
        assert_eq!(img, fresh_img);
    }

    #[test]
    fn col2im_rejects_wrong_shapes() {
        let geom = Conv2dGeometry::new(3, 3, 1, 1);
        let bad = Tensor::zeros(&[5, 5]);
        assert!(col2im(&bad, &[1, 1, 4, 4], &geom).is_err());
        assert!(im2col(&Tensor::zeros(&[3, 4, 4]), &geom).is_err());
    }
}
