//! Differential harness: banded `col2im_into` vs a scalar per-pixel model.
//!
//! `col2im` promises an exact accumulation order: every input pixel receives
//! its contributions in `ci → kh → kw → oy → ox` order, summed from zero.
//! The kernel walks each tap's in-bounds column band, a slice add at unit
//! stride, instead of bounds-checking every element; the reference below is
//! the plain loop with two bounds branches per element. Any geometry on
//! which the two differ by a single bit means the band arithmetic (`ox_lo`,
//! `ox_hi`, the stride walk) broke the contract.

use rand::Rng;
use taamr_tensor::{col2im_into, seeded_rng, Conv2dGeometry, Tensor};

/// Scalar model: scatter every column element to its pixel, skipping the
/// padding positions one element at a time.
fn reference_col2im(cols: &Tensor, dims: &[usize; 4], geom: &Conv2dGeometry) -> Tensor {
    let [n, c, h, w] = *dims;
    let (oh, ow) = geom.output_hw(h, w);
    let ncols = n * oh * ow;
    let (pad, stride) = (geom.padding as isize, geom.stride);
    let src = cols.as_slice();
    let mut out = Tensor::zeros(dims);
    let img = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = (ci * geom.kernel_h + kh) * geom.kernel_w + kw;
                    for oy in 0..oh {
                        let iy = (oy * stride) as isize + kh as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * stride) as isize + kw as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let dst = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            img[dst] += src[row * ncols + (ni * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Random column matrix for `dims` under `geom`, run through both paths;
/// the output buffer is reused across calls so stale contents would show.
fn assert_matches(dims: [usize; 4], geom: Conv2dGeometry, seed: u64, out: &mut Tensor) {
    let [n, c, h, w] = dims;
    let (oh, ow) = geom.output_hw(h, w);
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = Tensor::rand_uniform(&[rows, n * oh * ow], -1.0, 1.0, &mut seeded_rng(seed));
    let expect = reference_col2im(&cols, &dims, &geom);
    col2im_into(&cols, &dims, &geom, out).unwrap();
    assert_eq!(out.dims(), &dims);
    assert_eq!(bits(out), bits(&expect), "dims {dims:?}, geometry {geom:?}, seed {seed}");
}

#[test]
fn banded_col2im_matches_the_scalar_model_on_seeded_geometries() {
    let mut rng = seeded_rng(0xC012);
    let mut out = Tensor::zeros(&[0]);
    let mut cases = 0;
    for kernel in 1..=5usize {
        for stride in 1..=3usize {
            for padding in 0..=2usize {
                for _ in 0..4 {
                    let n = rng.gen_range(1..=3usize);
                    let c = rng.gen_range(1..=3usize);
                    // Anything from "kernel wider than the image" up.
                    let lo = kernel.saturating_sub(2 * padding).max(1);
                    let h = rng.gen_range(lo..=lo + 7);
                    let w = rng.gen_range(lo..=lo + 7);
                    let geom = Conv2dGeometry::new(kernel, kernel, stride, padding);
                    assert_matches([n, c, h, w], geom, rng.gen(), &mut out);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 5 * 3 * 3 * 4);
}

#[test]
fn taps_with_an_empty_band_contribute_nothing() {
    // A 1-pixel-wide image under a 5-wide kernel with padding 2: the outer
    // kernel columns only ever read padding, so their band is empty.
    let mut out = Tensor::zeros(&[0]);
    for stride in 1..=3 {
        let geom = Conv2dGeometry::new(5, 5, stride, 2);
        assert_matches([2, 2, 1, 1], geom, 11, &mut out);
        assert_matches([1, 3, 4, 1], geom, 12, &mut out);
        assert_matches([1, 1, 1, 6], geom, 13, &mut out);
    }
}

#[test]
fn kernels_wider_than_the_image_match_with_padding() {
    let mut out = Tensor::zeros(&[0]);
    for (kernel, padding, hw) in [(3, 1, 1), (4, 1, 2), (5, 1, 3), (5, 2, 2), (5, 2, 4)] {
        for stride in 1..=3 {
            let geom = Conv2dGeometry::new(kernel, kernel, stride, padding);
            assert_matches([3, 2, hw, hw], geom, (kernel * 10 + stride) as u64, &mut out);
        }
    }
}

#[test]
fn rectangular_kernels_and_the_parallel_path_match() {
    let mut out = Tensor::zeros(&[0]);
    // Rectangular kernels exercise kernel_h != kernel_w.
    assert_matches([2, 3, 7, 9], Conv2dGeometry::new(2, 4, 1, 1), 21, &mut out);
    assert_matches([2, 3, 9, 7], Conv2dGeometry::new(5, 3, 2, 2), 22, &mut out);
    // Above the fan-out threshold the images scatter on worker threads.
    for threads in [1usize, 4] {
        rayon::with_threads(threads, || {
            assert_matches([3, 16, 32, 32], Conv2dGeometry::new(3, 3, 1, 1), 23, &mut out);
            assert_matches([3, 16, 32, 32], Conv2dGeometry::new(3, 3, 2, 1), 24, &mut out);
        });
    }
}
