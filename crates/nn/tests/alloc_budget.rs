//! Steady-state inference allocates nothing: every engine's `infer` and
//! `classify` run in buffers sized before the decision, so a deployed
//! decision loop never touches the heap.
//!
//! A counting global allocator forwards to [`System`] and counts each
//! allocation of the current thread; the count lives in a `const`
//! thread-local, so tests running in parallel on other threads cannot
//! move it. Each engine is warmed up first where its arenas are grown
//! on first use, then pinned at exactly zero allocations per decision.
//! A batch is pinned at its one output `Vec`, and a pool batch, which
//! copies its chunks for the helper lane, at an exact count on the
//! calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use safex_nn::layer::BatchNormLayer;
use safex_nn::{
    EccConfig, Engine, HardenConfig, HardenedEngine, HardenedPool, HardenedQEngine, Model,
    ModelBuilder, QEngine, QModel,
};
use safex_tensor::fixed::Q16_16;
use safex_tensor::{DetRng, Shape};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down; those allocations are not a decision's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`], counting every allocation and reallocation per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this call pass to `System`
        // unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this call pass to `System`
        // unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for this call pass to `System`
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this call pass to `System`
        // unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `decide` makes on this thread over `rounds` calls.
fn allocations(rounds: usize, mut decide: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..rounds {
        decide();
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// Conv → batch-norm → pool → dense → softmax: every kernel family the
/// layer loop dispatches, batched dense and per-item layers alike.
fn model() -> Model {
    let mut rng = DetRng::new(11);
    ModelBuilder::new(Shape::chw(1, 6, 6))
        .conv2d(2, 3, 1, 1, &mut rng)
        .unwrap()
        .batchnorm(
            BatchNormLayer::new(
                vec![1.5, 0.8],
                vec![0.1, -0.2],
                vec![0.05, -0.1],
                vec![0.5, 1.2],
                1e-5,
            )
            .unwrap(),
        )
        .unwrap()
        .relu()
        .maxpool2d(2, 2)
        .unwrap()
        .flatten()
        .dense(8, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap()
}

fn inputs() -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(12);
    (0..8)
        .map(|_| (0..36).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect()
}

fn quantised(inputs: &[Vec<f32>]) -> Vec<Vec<Q16_16>> {
    inputs
        .iter()
        .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
        .collect()
}

/// The hardened configurations pinned: Full CRC on every decision, then
/// with ECC repair armed.
fn configs() -> [(&'static str, HardenConfig); 2] {
    let full = HardenConfig::default();
    let ecc = HardenConfig {
        repair: Some(EccConfig::default()),
        ..full
    };
    [("full CRC", full), ("full CRC + ECC", ecc)]
}

#[test]
fn f32_engine_allocates_nothing_from_its_first_decision() {
    let xs = inputs();
    let mut engine = Engine::new(model());
    let mut i = 0;
    let n = allocations(16, || {
        let x = &xs[i % xs.len()];
        i += 1;
        engine.infer(x).unwrap();
        engine.classify(x).unwrap();
        engine.classify_f32(x).unwrap();
    });
    assert_eq!(n, 0, "Engine<Model>: allocations over 16 decisions");
}

#[test]
fn q16_engine_allocates_nothing_from_its_first_decision() {
    let fs = inputs();
    let xs = quantised(&fs);
    let mut engine = QEngine::new(QModel::quantize(&model()).unwrap());
    let mut i = 0;
    let n = allocations(16, || {
        let x = &xs[i % xs.len()];
        let f = &fs[i % fs.len()];
        i += 1;
        engine.infer(x).unwrap();
        engine.classify(x).unwrap();
        engine.classify_f32(f).unwrap();
    });
    assert_eq!(n, 0, "Engine<QModel>: allocations over 16 decisions");
    // The counter does see the heap: `infer_f32` returns its output as
    // a new Vec, one allocation per call.
    let n = allocations(16, || {
        engine.infer_f32(&fs[0]).unwrap();
    });
    assert_eq!(n, 16, "Engine<QModel>::infer_f32 returns a Vec");
}

#[test]
fn engine_reuses_its_arena_after_a_batch() {
    let xs = inputs();
    let mut engine = Engine::new(model());
    engine.classify_batch(&xs).unwrap();
    let mut i = 0;
    let n = allocations(16, || {
        engine.classify(&xs[i % xs.len()]).unwrap();
        i += 1;
    });
    assert_eq!(n, 0, "single decisions after a batch");
}

#[test]
fn engine_batch_allocates_only_its_output_at_every_size() {
    // After a full-size warm-up batch has grown the arenas, a batch of
    // any size allocates exactly its output `Vec`. The `dense(8)` layer
    // runs the AVX-512 column tiles where the CPU has them, so their
    // per-item input block lives on the stack.
    let xs = inputs();
    let mut engine = Engine::new(model());
    engine.classify_batch(&xs).unwrap();
    for size in 2..=xs.len() {
        let n = allocations(4, || {
            engine.classify_batch(&xs[..size]).unwrap();
        });
        assert_eq!(n, 4, "Engine<Model>::classify_batch, {size} items");
    }
}

#[test]
fn hardened_f32_engine_allocates_nothing_in_steady_state() {
    let xs = inputs();
    for (name, config) in configs() {
        for guarded in [false, true] {
            let mut engine = HardenedEngine::new(model(), config).unwrap();
            if guarded {
                engine.calibrate(&xs).unwrap();
            }
            engine.classify(&xs[0]).unwrap();
            let mut i = 0;
            let n = allocations(16, || {
                let x = &xs[i % xs.len()];
                i += 1;
                engine.infer(x).unwrap();
                engine.classify(x).unwrap();
                engine.classify_f32(x).unwrap();
            });
            assert_eq!(n, 0, "HardenedEngine<Model>, {name}, guards {guarded}");
            assert_eq!(engine.event_count(), 0, "clean inputs raise nothing");
        }
    }
}

#[test]
fn hardened_q16_engine_allocates_nothing_in_steady_state() {
    let fs = inputs();
    let xs = quantised(&fs);
    let qmodel = QModel::quantize(&model()).unwrap();
    for (name, config) in configs() {
        for guarded in [false, true] {
            let mut engine = HardenedQEngine::new(qmodel.clone(), config).unwrap();
            if guarded {
                engine.calibrate(&xs).unwrap();
            }
            engine.classify(&xs[0]).unwrap();
            let mut i = 0;
            let n = allocations(16, || {
                let x = &xs[i % xs.len()];
                let f = &fs[i % fs.len()];
                i += 1;
                engine.infer(x).unwrap();
                engine.classify(x).unwrap();
                engine.classify_f32(f).unwrap();
            });
            assert_eq!(n, 0, "HardenedEngine<QModel>, {name}, guards {guarded}");
            assert_eq!(engine.event_count(), 0, "clean inputs raise nothing");
        }
    }
}

#[test]
fn hardened_pool_batch_allocates_a_fixed_count_on_the_calling_thread() {
    // Only the calling thread is counted. The helper lane's own
    // allocation (the boxed reply) is not, so the pin does not depend on
    // how the two lanes are scheduled. The 23: the chunk lengths (1), an
    // owned copy of each chunk (2 × (1 + 8 rows)), the helper's
    // pre-sized output (1), its boxed task (1), the replica split (1)
    // and the batch output (1). The decisions themselves allocate
    // nothing.
    let xs: Vec<Vec<f32>> = inputs().into_iter().cycle().take(16).collect();
    let engine = HardenedEngine::new(model(), HardenConfig::default()).unwrap();
    let mut pool = HardenedPool::new(&engine, 2).unwrap();
    // The first batch spawns the helper lane and grows the arenas.
    pool.classify_batch(&xs).unwrap();
    for batch in 0..8 {
        let n = allocations(1, || {
            pool.classify_batch(&xs).unwrap();
        });
        assert_eq!(
            n, 23,
            "HardenedPool<Model>, 2 workers, 16 items: batch {batch}"
        );
    }
}
