//! Batch-parallel inference helpers.
//!
//! Eval-mode forward passes are per-sample independent: batch normalisation
//! applies frozen running statistics, so no layer mixes information across
//! batch rows. A batch can therefore be split into contiguous sub-batches
//! evaluated on worker threads, each on its own copy of the model (layers
//! cache activations internally, so workers must not share one; a copy
//! carries the parameters only and builds its own caches).
//! Every per-sample output is produced by the same floating-point operation
//! sequence regardless of how the batch is split, which makes the parallel
//! results bitwise identical to a serial whole-batch pass for any thread
//! count.

use rayon::prelude::*;
use taamr_tensor::Tensor;

use crate::ImageClassifier;

/// Splits an NCHW batch into contiguous sub-batches of at most `chunk_size`
/// rows, preserving order.
///
/// # Panics
///
/// Panics if `chunk_size` is zero or `images` is not rank 4.
pub fn batch_chunks(images: &Tensor, chunk_size: usize) -> Vec<Tensor> {
    assert!(chunk_size > 0, "chunk size must be positive");
    assert_eq!(images.rank(), 4, "batch_chunks expects NCHW images");
    let n = images.dims()[0];
    let sample_len: usize = images.dims()[1..].iter().product();
    let src = images.as_slice();
    let mut chunks = Vec::with_capacity(n.div_ceil(chunk_size.max(1)));
    let mut start = 0;
    while start < n {
        let rows = chunk_size.min(n - start);
        let mut dims = images.dims().to_vec();
        dims[0] = rows;
        let data = src[start * sample_len..(start + rows) * sample_len].to_vec();
        chunks.push(Tensor::from_vec(data, &dims).expect("chunk shape is consistent"));
        start += rows;
    }
    chunks
}

/// Deep features (`[batch, feature_dim]`) for an NCHW batch, computed over
/// sub-batches of `chunk_size` rows on worker threads.
///
/// Bitwise identical to `model.clone().features(images)` for every thread
/// count, including one.
pub fn par_features<M>(model: &M, images: &Tensor, chunk_size: usize) -> Tensor
where
    M: ImageClassifier + Clone + Send + Sync,
{
    let n = images.dims()[0];
    let d = model.feature_dim();
    let parts: Vec<Tensor> = batch_chunks(images, chunk_size)
        .into_par_iter()
        .map_init(|| model.clone(), |m, chunk| m.features(&chunk))
        .collect();
    let mut data = Vec::with_capacity(n * d);
    for part in &parts {
        data.extend_from_slice(part.as_slice());
    }
    Tensor::from_vec(data, &[n, d]).expect("feature rows concatenate to [n, d]")
}

/// Predicted class per batch row, computed over sub-batches of `chunk_size`
/// rows on worker threads. Bitwise identical to a serial pass.
pub fn par_predict<M>(model: &M, images: &Tensor, chunk_size: usize) -> Vec<usize>
where
    M: ImageClassifier + Clone + Send + Sync,
{
    batch_chunks(images, chunk_size)
        .into_par_iter()
        .map_init(|| model.clone(), |m, chunk| m.predict(&chunk))
        .collect::<Vec<Vec<usize>>>()
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TinyResNet, TinyResNetConfig};
    use taamr_tensor::seeded_rng;

    fn net_and_batch(n: usize) -> (TinyResNet, Tensor) {
        let cfg = TinyResNetConfig::tiny_for_tests(4);
        let net = TinyResNet::new(&cfg, &mut seeded_rng(0));
        let x = Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, &mut seeded_rng(1));
        (net, x)
    }

    #[test]
    fn chunks_partition_the_batch() {
        let (_, x) = net_and_batch(7);
        let chunks = batch_chunks(&x, 3);
        assert_eq!(chunks.iter().map(|c| c.dims()[0]).collect::<Vec<_>>(), vec![3, 3, 1]);
        let glued: Vec<f32> =
            chunks.iter().flat_map(|c| c.as_slice().iter().copied()).collect();
        assert_eq!(glued, x.as_slice());
    }

    #[test]
    fn par_features_matches_serial_whole_batch() {
        let (net, x) = net_and_batch(6);
        let serial = net.clone().features(&x);
        for threads in [1usize, 2, 4] {
            let par = rayon::with_threads(threads, || par_features(&net, &x, 2));
            assert_eq!(par, serial, "thread count {threads}");
        }
    }

    #[test]
    fn par_predict_matches_serial_whole_batch() {
        let (net, x) = net_and_batch(5);
        let serial = net.clone().predict(&x);
        for threads in [1usize, 3, 8] {
            let par = rayon::with_threads(threads, || par_predict(&net, &x, 2));
            assert_eq!(par, serial, "thread count {threads}");
        }
    }

    #[test]
    fn cloned_model_is_independent() {
        let (net, x) = net_and_batch(2);
        let mut a = net.clone();
        let mut b = net.clone();
        let fa = a.features(&x);
        // Running b on different data must not disturb a's results.
        let other = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut seeded_rng(9));
        let _ = b.features(&other);
        assert_eq!(a.features(&x), fa);
    }
}
