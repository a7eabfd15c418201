//! Allocation contracts of the white-box attack loop, counted by a global
//! allocator.
//!
//! * A warmed `loss_input_grad` on the Tiny configuration at batch 1 — one
//!   PGD step — asks the allocator for nothing: every layer rewrites its own
//!   output and gradient buffers, and the conv lowering borrows the thread's
//!   scratch.
//! * The gradient steps of PGD allocate nothing either, so a 20-step attack
//!   makes exactly as many allocations as a 2-step one.
//! * Cloning a network copies its persistent state only. A net whose caches
//!   hold a batch-16 training pass clones to the size of a fresh net, and
//!   the clone computes bit for bit what the original does.
//!
//! Counts are kept per thread, and each measured region runs with the
//! thread pool pinned to one thread, so every allocation it causes lands on
//! the measuring thread and nothing the test harness does elsewhere leaks
//! in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::SeedableRng;
use taamr_attack::{Attack, AttackGoal, Epsilon, Pgd, WhiteBox};
use taamr_nn::{ImageClassifier, Sgd, SgdConfig, TinyResNet, TinyResNetConfig};
use taamr_tensor::{seeded_rng, Tensor};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64, allocs: u64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` on one thread and returns its result with the allocations it
/// made and the net change in live heap bytes.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    rayon::with_threads(1, || {
        let (a0, b0) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
        let r = f();
        let (a1, b1) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
        (r, a1 - a0, b1 - b0)
    })
}

fn tiny_net(seed: u64) -> TinyResNet {
    TinyResNet::new(&TinyResNetConfig::tiny_for_tests(4), &mut seeded_rng(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_warmed_input_gradient_step_allocates_nothing() {
    let mut net = tiny_net(0);
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(1));
    let labels = [2usize];
    // Warm-up: sizes every layer buffer and the thread's conv/GEMM scratch.
    let (warm, _, _) = measure(|| bits(net.loss_input_grad(&x, &labels).1));
    for _ in 0..3 {
        let ((loss, grad), allocs, _) = measure(|| {
            let (loss, grad) = net.loss_input_grad(&x, &labels);
            (loss, bits(grad))
        });
        // `bits` itself allocates the one Vec it returns.
        assert_eq!(allocs, 1, "a warmed loss_input_grad allocated {} times", allocs - 1);
        assert!(loss.is_finite());
        assert_eq!(grad, warm, "reused buffers must not change the gradient");
    }
}

#[test]
fn pgd_gradient_steps_do_not_allocate() {
    let mut net = tiny_net(2);
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.05, 0.95, &mut seeded_rng(3));
    let eps = Epsilon::from_255(8.0);
    let goal = AttackGoal::Targeted(1);
    let mut run = |steps: usize| {
        let attack = Pgd::with_steps(eps, steps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        measure(|| attack.perturb(&mut WhiteBox(&mut net), &x, goal, &mut rng).unwrap()).1
    };
    run(2); // warm-up
    let (two, twenty) = (run(2), run(20));
    assert_eq!(twenty, two, "PGD allocations grew with the step count: 2 steps {two}, 20 steps {twenty}");
}

#[test]
fn a_clone_carries_parameters_not_caches() {
    let cfg = TinyResNetConfig::tiny_for_tests(4);
    let batch = Tensor::rand_uniform(&[16, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(5));
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let mut net = tiny_net(6);

    // Fill every forward cache and buffer with a batch-16 training pass.
    let ((), _, cached_bytes) = measure(|| {
        net.train_backward(&batch, &labels);
    });
    let (fresh, _, fresh_bytes) = measure(|| TinyResNet::new(&cfg, &mut seeded_rng(7)));
    drop(fresh);
    let (mut copy, _, clone_bytes) = measure(|| net.clone());
    assert!(
        (clone_bytes - fresh_bytes).abs() <= 4096,
        "clone holds {clone_bytes} bytes, a fresh net {fresh_bytes}"
    );
    assert!(cached_bytes > 16 * clone_bytes, "the training pass should have filled the caches");

    // The clone computes exactly what the original does.
    let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(8));
    assert_eq!(bits(&copy.logits(&x)), bits(&net.logits(&x)));
    let (loss_copy, grad_copy) = copy.loss_input_grad(&x, &[0, 3]);
    let (loss_copy, grad_copy) = (loss_copy.to_bits(), bits(grad_copy));
    let (loss, grad) = net.loss_input_grad(&x, &[0, 3]);
    assert_eq!(loss_copy, loss.to_bits());
    assert_eq!(grad_copy, bits(grad));

    // Gradients and momentum are persistent state: an optimiser step, then
    // a clone, carries both.
    Sgd::new(SgdConfig::default()).step(&mut net.params_mut());
    let mut stepped = net.clone();
    for (a, b) in net.params_mut().into_iter().zip(stepped.params_mut()) {
        assert_eq!(bits(&a.value), bits(&b.value));
        assert_eq!(bits(&a.grad), bits(&b.grad));
        let momentum = |p: &taamr_nn::Param| p.momentum.as_ref().map(bits);
        assert!(a.momentum.is_some());
        assert_eq!(momentum(a), momentum(b));
    }
}
