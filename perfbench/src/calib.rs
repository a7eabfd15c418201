//! Machine-speed calibration of the end-to-end times.
//!
//! On a shared virtual machine the speed of the CPU the benchmark runs on
//! changes with what other tenants run on the same host. On the 2-vCPU
//! Xeon VM this benchmark was tuned on, the time of one fixed 192×192 GEMM
//! of the program moved between 1.4 and 2.8 ms within one minute, with
//! slow and fast periods lasting tens of seconds, and thread CPU time moved
//! with it. The medians of ten runs of the same code moved by up to 30%
//! between two sets of runs. A median over more work does not remove a
//! drift that slow.
//!
//! A fixed reference kernel, part of the benchmark and calling no code of
//! the program, is therefore timed right before and right after every
//! measured interval. Its time against its nominal time is the machine's
//! slowdown over the interval, and the end-to-end times are the interval's
//! wall time divided by that slowdown: milliseconds at the nominal machine
//! speed. The kernel is a naive 128×128 f32 matrix product. Over the same
//! minute of drift, the ratio of the program's GEMM to the kernel stayed
//! within ±4% while the GEMM alone moved ±30%. In a trial of four runs per
//! workload, a kernel echoing over loopback TCP tracked the churn reads
//! about as well but the other two workloads worse, and one streaming an
//! 8 MiB buffer tracked all three worse.
//!
//! A change to the program cannot move the kernel, so a program that gets
//! slower still reports a longer time. The raw wall times and the median
//! slowdown are printed in each workload's `info` line.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Side of the kernel's square matrices.
const N: usize = 128;
/// Kernel repetitions per sample; a sample is their median.
const REPS: usize = 9;
/// Nominal kernel time (ms), near its time on the machine above when that
/// machine is fast: a slowdown of 1 reports wall time.
const NOMINAL_MS: f64 = 0.25;

/// Times the reference kernel and turns wall times into calibrated ones.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// Slowdown measured by the latest sample.
    last: f64,
    /// Every slowdown measured, for the `info` line.
    slowdowns: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with a first sample taken: the first interval starts
    /// now.
    pub fn new() -> Calibrator {
        let mut cal = Calibrator {
            a: (0..N * N).map(|i| (i % 17) as f32 * 0.25).collect(),
            b: (0..N * N).map(|i| (i % 13) as f32 * 0.5).collect(),
            c: vec![0.0; N * N],
            last: 1.0,
            slowdowns: Vec::new(),
        };
        cal.last = cal.sample();
        cal
    }

    /// Times the kernel; returns its median time over the nominal one.
    fn sample(&mut self) -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                matmul(black_box(&self.a), black_box(&self.b), &mut self.c);
                black_box(&self.c);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let slowdown = median(&times) / NOMINAL_MS;
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Starts a new interval now.
    pub fn restart(&mut self) {
        self.last = self.sample();
    }

    /// Ends the interval that began at the previous sample and starts the
    /// next one: samples the kernel again and returns the interval's
    /// slowdown, the mean of the two samples around it. Divide the
    /// interval's wall times by it.
    pub fn interval(&mut self) -> f64 {
        let before = self.last;
        self.last = self.sample();
        (before + self.last) / 2.0
    }

    /// Median slowdown over every sample so far.
    pub fn median_slowdown(&self) -> f64 {
        median(&self.slowdowns)
    }
}

/// `c = a · b` for square `N × N` matrices, in i-k-j order.
fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    for i in 0..N {
        let row = &mut c[i * N..(i + 1) * N];
        for k in 0..N {
            let aik = a[i * N + k];
            for (cij, &bkj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *cij += aik * bkj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_average_the_samples_around_them() {
        let mut cal = Calibrator::new();
        let first = cal.slowdowns[0];
        let s = cal.interval();
        assert!(s.is_finite() && s > 0.0, "{s}");
        assert_eq!(s, (first + cal.slowdowns[1]) / 2.0);
        assert_eq!(cal.slowdowns.len(), 2);
    }

    #[test]
    fn matmul_matches_the_definition() {
        let a: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32).collect();
        let b: Vec<f32> = (0..N * N).map(|i| (i % 3) as f32).collect();
        let mut c = vec![0.0; N * N];
        matmul(&a, &b, &mut c);
        let (i, j) = (7, 11);
        let want: f32 = (0..N).map(|k| a[i * N + k] * b[k * N + j]).sum();
        assert_eq!(c[i * N + j], want);
    }
}
