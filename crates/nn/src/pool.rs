//! Deterministic parallel batch inference.
//!
//! [`EnginePool`] (f32 by default; [`QEnginePool`] is the same pool over
//! a Q16.16 model) owns N per-worker engine replicas, each with its own
//! pre-allocated activation buffers, and fans a batch out across persistent helper lanes: the
//! caller runs the first chunk itself and N−1 long-lived helper threads
//! run the rest.
//!
//! **Determinism argument.** Results are bit-exact for every worker count
//! because nothing about the computation depends on the partitioning:
//!
//! * the batch is split *statically* into contiguous chunks — no work
//!   stealing, no scheduling-dependent assignment;
//! * each input is processed by exactly one engine replica whose kernels
//!   ([`safex_tensor::ops`]) fix the accumulation order and width, so an
//!   input's output is a pure function of (model, input) — never of which
//!   replica ran it or what ran before it;
//! * per-worker outputs are stitched back in chunk order, so the batch
//!   output order equals the input order.
//!
//! `infer_batch` with 8 workers therefore returns byte-identical results
//! to `infer_batch` with 1 worker, which equals a sequential
//! [`Engine::infer`] loop. `tests/determinism.rs` asserts this over a
//! {1, 2, 4, 8} × {f32, Q16.16} matrix, preserving the experiment E5
//! guarantee under parallelism.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::engine::{Classification, Engine};
use crate::error::NnError;
use crate::harden::HardenDomain;
use crate::model::Model;
use crate::quant::QModel;

/// Stack of a helper lane. Helpers run only engine kernels, whose buffers
/// live on the heap, so a small fixed stack keeps an idle helper cheap.
const LANE_STACK_BYTES: usize = 128 * 1024;

/// How long the caller spins on a helper's reply before parking. Balanced
/// chunks finish within a thread wake-up of each other (a seven-item
/// hardened chunk takes ~30 µs, ~4.5 µs per item, on a 2-vCPU x86-64
/// host), so the reply usually lands inside the spin and the caller is
/// never parked and woken.
const REPLY_SPIN: Duration = Duration::from_micros(50);

/// Splits `n` items into `workers` contiguous chunk lengths that differ by
/// at most one (earlier chunks take the remainder).
///
/// Every deterministic sweep driver partitions with this one function
/// (`safex_core` re-exports it for its campaign runner and
/// `safex-falsify`): as long as each item's seed or index is fixed
/// *before* partitioning, the chunk layout cannot influence any RNG stream
/// and results stitched in chunk order are byte-identical for any worker
/// count.
pub fn chunk_lens(n: usize, workers: usize) -> Vec<usize> {
    let base = n / workers;
    let rem = n % workers;
    (0..workers)
        .map(|i| base + usize::from(i < rem))
        .filter(|&len| len > 0)
        .collect()
}

/// One chunk's work on a borrowed replica; returns the chunk's buffers and
/// status type-erased, because one helper serves every call site.
type Task<W> = Box<dyn FnOnce(&mut W) -> Box<dyn Any + Send> + Send>;

/// What a task hands back: the input chunk (freed on the caller), the
/// output, and the chunk's status.
type Finished<T, O> = (Vec<Vec<T>>, Vec<O>, Result<(), NnError>);

/// What a helper sends back: the replica, plus the task's result or its
/// panic payload.
type Reply<W> = (W, thread::Result<Box<dyn Any + Send>>);

/// A parked helper thread and its two channels.
struct Helper<W> {
    jobs: SyncSender<(W, Task<W>)>,
    replies: Receiver<Reply<W>>,
    thread: JoinHandle<()>,
}

impl<W: Send + 'static> Helper<W> {
    fn spawn() -> Result<Self, NnError> {
        let (jobs, inbox) = mpsc::sync_channel::<(W, Task<W>)>(1);
        let (outbox, replies) = mpsc::sync_channel(1);
        let thread = thread::Builder::new()
            .name("safex-lane".into())
            .stack_size(LANE_STACK_BYTES)
            .spawn(move || {
                // The replica is held outside the task, so it goes back to
                // the caller even when the task panics.
                while let Ok((mut replica, task)) = inbox.recv() {
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(&mut replica)));
                    if outbox.send((replica, outcome)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| NnError::Pool(format!("cannot spawn a pool lane: {e}")))?;
        Ok(Helper {
            jobs,
            replies,
            thread,
        })
    }

    /// Waits for the helper's reply, spinning for up to [`REPLY_SPIN`]
    /// before parking: the caller has nothing else to do, and a parked
    /// caller pays a second thread wake-up per batch.
    fn await_reply(&self) -> Result<Reply<W>, mpsc::RecvError> {
        let deadline = Instant::now() + REPLY_SPIN;
        loop {
            match self.replies.try_recv() {
                Ok(reply) => return Ok(reply),
                Err(mpsc::TryRecvError::Empty) if Instant::now() < deadline => {
                    std::hint::spin_loop();
                }
                Err(_) => return self.replies.recv(),
            }
        }
    }
}

/// N engine replicas plus the N−1 persistent helper threads that run
/// chunks 1..N of a batch; the shared dispatcher behind every pool.
///
/// * **Lifecycle.** Helpers are spawned on the first dispatch that needs
///   them (a batch of one item, or a one-replica pool, never spawns), park
///   on a channel between batches, and are joined when the lanes drop. A
///   clone copies the replicas and starts with no helpers.
/// * **Dispatch.** Chunk boundaries come from [`chunk_lens`]. The caller
///   runs chunk 0 on replica 0; replica k moves to helper k by value with
///   an owned copy of its chunk and a pre-sized output, and comes back in
///   chunk order. The caller allocates both buffers and gets both back, so
///   a helper's own heap use stays a few bytes per batch.
/// * **Failure.** Every replica is back in its slot before an error or a
///   panic reaches the caller. The first failing chunk in chunk order
///   decides the batch: an error fails the whole batch (no partial
///   results), a panic is re-raised with [`panic::resume_unwind`].
pub(crate) struct Lanes<W> {
    replicas: Vec<W>,
    helpers: Vec<Helper<W>>,
}

impl<W: Send + 'static> Lanes<W> {
    /// Builds `workers` replicas with `replica`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub(crate) fn new(workers: usize, replica: impl FnMut() -> W) -> Result<Self, NnError> {
        if workers == 0 {
            return Err(NnError::Pool("pool needs at least one worker".into()));
        }
        Ok(Lanes {
            replicas: std::iter::repeat_with(replica).take(workers).collect(),
            helpers: Vec::new(),
        })
    }

    pub(crate) fn replicas(&self) -> &[W] {
        &self.replicas
    }

    pub(crate) fn replicas_mut(&mut self) -> &mut [W] {
        &mut self.replicas
    }

    /// Runs `per_chunk` over the statically partitioned batch and stitches
    /// the outputs in input order. `per_chunk` gets its replica, the global
    /// index of the chunk's first item (`base` plus the chunk's offset),
    /// the chunk, and the output to push to.
    ///
    /// Generic over the engine type so every pool shares one partitioning
    /// and stitching implementation, and thus one determinism argument —
    /// provided `per_chunk` itself is item-order preserving and
    /// item-independent, which the engines' batch paths are (bit-identical
    /// to their per-item loops).
    pub(crate) fn dispatch<T, I, O, F>(
        &mut self,
        base: u64,
        inputs: &[I],
        per_chunk: F,
    ) -> Result<Vec<O>, NnError>
    where
        T: Copy + Send + 'static,
        I: AsRef<[T]>,
        O: Send + 'static,
        F: Fn(&mut W, u64, &[Vec<T>], &mut Vec<O>) -> Result<(), NnError> + Copy + Send + 'static,
    {
        let owned =
            |chunk: &[I]| -> Vec<Vec<T>> { chunk.iter().map(|x| x.as_ref().to_vec()).collect() };
        let lens = chunk_lens(inputs.len(), self.replicas.len());
        let mut out = Vec::with_capacity(inputs.len());
        let Some((&first, rest_lens)) = lens.split_first().filter(|(_, rest)| !rest.is_empty())
        else {
            // Small batches and single-worker pools run inline.
            per_chunk(&mut self.replicas[0], base, &owned(inputs), &mut out)?;
            return Ok(out);
        };
        while self.helpers.len() < rest_lens.len() {
            self.helpers.push(Helper::spawn()?);
        }

        let mut away = self.replicas.split_off(1);
        let idle = away.split_off(rest_lens.len());
        let mut start = first;
        for ((helper, replica), &len) in self.helpers.iter().zip(away).zip(rest_lens) {
            let chunk = owned(&inputs[start..start + len]);
            let mut chunk_out = Vec::with_capacity(len);
            let index = base + start as u64;
            let task: Task<W> = Box::new(move |replica: &mut W| -> Box<dyn Any + Send> {
                let status = per_chunk(replica, index, &chunk, &mut chunk_out);
                let finished: Finished<T, O> = (chunk, chunk_out, status);
                Box::new(finished)
            });
            start += len;
            // A helper only exits once its lanes drop, so delivery cannot
            // fail while they are alive.
            if let Err(mpsc::SendError((replica, _))) = helper.jobs.send((replica, task)) {
                self.replicas.push(replica);
            }
        }

        let chunk0 = owned(&inputs[..first]);
        let mut status = panic::catch_unwind(AssertUnwindSafe(|| {
            per_chunk(&mut self.replicas[0], base, &chunk0, &mut out)
        }));
        for helper in &self.helpers[..rest_lens.len()] {
            let chunk_status = match helper.await_reply() {
                Ok((replica, outcome)) => {
                    self.replicas.push(replica);
                    outcome.map(|finished| match finished.downcast::<Finished<T, O>>() {
                        Ok(finished) => {
                            let (_chunk, chunk_out, chunk_status) = *finished;
                            out.extend(chunk_out);
                            chunk_status
                        }
                        Err(_) => Err(NnError::Pool("pool lane returned a foreign result".into())),
                    })
                }
                Err(_) => Ok(Err(NnError::Pool("pool lane exited mid-batch".into()))),
            };
            if matches!(status, Ok(Ok(()))) {
                status = chunk_status;
            }
        }
        self.replicas.extend(idle);
        match status {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(e),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl<W: Clone> Clone for Lanes<W> {
    fn clone(&self) -> Self {
        Lanes {
            replicas: self.replicas.clone(),
            helpers: Vec::new(),
        }
    }
}

impl<W: fmt::Debug> fmt::Debug for Lanes<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.replicas).finish()
    }
}

impl<W> Drop for Lanes<W> {
    fn drop(&mut self) {
        // Dropping a helper's job sender wakes it out of `recv` to exit;
        // close every lane first so they wind down together.
        let threads: Vec<JoinHandle<()>> = self.helpers.drain(..).map(|h| h.thread).collect();
        for thread in threads {
            // Tasks run under `catch_unwind`, so a helper never unwinds.
            let _ = thread.join();
        }
    }
}

/// A pool of [`Engine`] replicas for parallel batch inference: f32 by
/// default, or [`QEnginePool`] over a Q16.16 [`QModel`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::{model::ModelBuilder, EnginePool};
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(3);
/// let model = ModelBuilder::new(Shape::vector(2))
///     .dense(4, &mut rng)?
///     .relu()
///     .dense(2, &mut rng)?
///     .softmax()
///     .build()?;
/// let mut pool = EnginePool::new(model, 4)?;
/// let batch: Vec<Vec<f32>> = (0..16)
///     .map(|i| vec![i as f32 * 0.1, 1.0 - i as f32 * 0.1])
///     .collect();
/// let outputs = pool.infer_batch(&batch)?;
/// assert_eq!(outputs.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnginePool<M: HardenDomain = Model> {
    workers: Lanes<Engine<M>>,
}

/// A pool of fixed-point [`crate::QEngine`] replicas — the
/// cross-platform-bit-exact deployment configuration.
pub type QEnginePool = EnginePool<QModel>;

impl<M: HardenDomain> EnginePool<M> {
    /// Creates a pool of `workers` engine replicas of `model`.
    ///
    /// Every replica pre-allocates its own activation buffers at
    /// construction, so batch dispatch itself stays allocation-free on
    /// the per-worker hot path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub fn new(model: M, workers: usize) -> Result<Self, NnError> {
        Ok(EnginePool {
            workers: Lanes::new(workers, || Engine::new(model.clone()))?,
        })
    }

    /// Number of worker replicas.
    pub fn workers(&self) -> usize {
        self.workers.replicas().len()
    }

    /// The shared model (all replicas are identical).
    pub fn model(&self) -> &M {
        self.workers.replicas()[0].model()
    }

    /// Total inferences completed across all workers.
    pub fn inference_count(&self) -> u64 {
        self.workers
            .replicas()
            .iter()
            .map(Engine::inference_count)
            .sum()
    }

    /// Runs the model over a batch, in parallel, preserving input order.
    ///
    /// Outputs are bit-exact for every worker count (see the module
    /// docs for the argument).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn infer_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Vec<M::Elem>>, NnError> {
        self.workers.dispatch(0, inputs, |engine, _, chunk, out| {
            out.extend(engine.infer_batch(chunk)?);
            Ok(())
        })
    }

    /// Classifies a batch, in parallel, preserving input order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn classify_batch<I: AsRef<[M::Elem]>>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Classification>, NnError> {
        self.workers.dispatch(0, inputs, |engine, _, chunk, out| {
            out.extend(engine.classify_batch(chunk)?);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use safex_tensor::fixed::Q16_16;
    use safex_tensor::{DetRng, Shape};

    fn mlp(seed: u64) -> Model {
        let mut rng = DetRng::new(seed);
        ModelBuilder::new(Shape::vector(3))
            .dense(8, &mut rng)
            .unwrap()
            .relu()
            .dense(4, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap()
    }

    fn batch(n: usize) -> Vec<Vec<f32>> {
        let mut rng = DetRng::new(7);
        (0..n)
            .map(|_| (0..3).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(matches!(EnginePool::new(mlp(1), 0), Err(NnError::Pool(_))));
    }

    /// Replicas numbered 1..=n, so outputs show which replica ran an item.
    fn numbered(n: usize) -> Lanes<u32> {
        let mut next = 0;
        Lanes::new(n, || {
            next += 1;
            next
        })
        .unwrap()
    }

    fn items(n: u32) -> Vec<Vec<u32>> {
        (0..n).map(|i| vec![i]).collect()
    }

    /// Tags each item with its replica and global index; fails on item 100
    /// + k with `Pool("k")` and panics on item 666.
    fn tag(
        replica: &mut u32,
        start: u64,
        chunk: &[Vec<u32>],
        out: &mut Vec<(u32, u64)>,
    ) -> Result<(), NnError> {
        for (index, item) in (start..).zip(chunk) {
            match item[0] {
                666 => panic!("item 666"),
                bad @ 100.. => return Err(NnError::Pool((bad - 100).to_string())),
                _ => out.push((*replica, index)),
            }
        }
        Ok(())
    }

    #[test]
    fn lanes_stitch_in_chunk_order_and_keep_replica_slots() {
        let mut lanes = numbered(4);
        let got = lanes.dispatch(10, &items(10), tag).unwrap();
        let replicas: Vec<u32> = got.iter().map(|&(r, _)| r).collect();
        assert_eq!(replicas, [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]);
        let indices: Vec<u64> = got.iter().map(|&(_, i)| i).collect();
        assert_eq!(indices, (10..20).collect::<Vec<u64>>());
        // A batch smaller than the pool leaves the spare replicas home.
        assert_eq!(lanes.dispatch(0, &items(2), tag).unwrap(), [(1, 0), (2, 1)]);
        assert_eq!(lanes.replicas(), [1, 2, 3, 4]);
        // A clone gets the replicas but no helpers.
        let clone = lanes.clone();
        assert_eq!(
            (clone.replicas(), clone.helpers.len()),
            (&[1, 2, 3, 4][..], 0)
        );
    }

    #[test]
    fn dropping_lanes_joins_their_helpers() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static WATCH: OnExit = const { OnExit });

        fn watched(
            _: &mut u32,
            _: u64,
            chunk: &[Vec<u32>],
            out: &mut Vec<u32>,
        ) -> Result<(), NnError> {
            WATCH.with(|_| ());
            out.extend(chunk.iter().map(|x| x[0]));
            Ok(())
        }

        let mut lanes = numbered(4);
        assert_eq!(lanes.dispatch(0, &items(4), watched).unwrap(), [0, 1, 2, 3]);
        assert_eq!(lanes.helpers.len(), 3);
        drop(lanes);
        // Thread-local destructors run before a thread finishes, so all
        // three have run once `drop` has joined the helpers.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn lanes_return_every_replica_before_an_error_or_panic() {
        let mut lanes = numbered(4);
        let mut inputs = items(8);
        inputs[3][0] = 101; // chunk 1
        inputs[7][0] = 103; // chunk 3
        match lanes.dispatch(0, &inputs, tag) {
            Err(NnError::Pool(msg)) => assert_eq!(msg, "1", "first chunk in order decides"),
            other => panic!("expected chunk 1's error, got {other:?}"),
        }
        assert_eq!(lanes.replicas(), [1, 2, 3, 4]);

        inputs[3][0] = 3;
        inputs[5][0] = 666; // a panic on a helper
        let caught = panic::catch_unwind(AssertUnwindSafe(|| lanes.dispatch(0, &inputs, tag)));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 666"));
        assert_eq!(lanes.replicas(), [1, 2, 3, 4]);

        inputs[0][0] = 666; // a panic on the caller's own chunk
        assert!(panic::catch_unwind(AssertUnwindSafe(|| lanes.dispatch(0, &inputs, tag))).is_err());
        assert_eq!(lanes.replicas(), [1, 2, 3, 4]);

        let again = lanes.dispatch(0, &items(8), tag).unwrap();
        assert_eq!(again, numbered(4).dispatch(0, &items(8), tag).unwrap());
    }

    #[test]
    fn pools_survive_a_failed_last_chunk() {
        use crate::harden::{HardenConfig, HardenedEngine, HardenedPool};

        let bits = |rows: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let inputs = batch(9);
        let mut bad = inputs.clone();
        bad[8] = vec![0.0; 2]; // wrong arity, in the last chunk
        let engine = HardenedEngine::new(mlp(9), HardenConfig::default()).unwrap();
        for workers in [2, 4] {
            let mut pool = EnginePool::new(mlp(9), workers).unwrap();
            assert!(matches!(
                pool.infer_batch(&bad),
                Err(NnError::InputShape { .. })
            ));
            assert_eq!(pool.workers(), workers);
            let mut fresh = EnginePool::new(mlp(9), workers).unwrap();
            assert_eq!(
                bits(pool.infer_batch(&inputs).unwrap()),
                bits(fresh.infer_batch(&inputs).unwrap()),
                "{workers} workers"
            );

            let mut pool = HardenedPool::new(&engine, workers).unwrap();
            assert!(matches!(
                pool.classify_batch(&bad),
                Err(NnError::InputShape { .. })
            ));
            assert_eq!((pool.engines().len(), pool.dispatched()), (workers, 0));
            let mut fresh = HardenedPool::new(&engine, workers).unwrap();
            let got = pool.classify_batch(&inputs).unwrap();
            let want = fresh.classify_batch(&inputs).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{workers} workers");
        }
    }

    #[test]
    fn chunk_lens_cover_and_order() {
        assert_eq!(chunk_lens(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(chunk_lens(3, 8), vec![1, 1, 1]);
        assert_eq!(chunk_lens(8, 1), vec![8]);
        assert_eq!(chunk_lens(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn batch_matches_sequential_engine() {
        let model = mlp(2);
        let inputs = batch(13);
        let mut engine = Engine::new(model.clone());
        let expected: Vec<Vec<f32>> = inputs
            .iter()
            .map(|x| engine.infer(x).unwrap().to_vec())
            .collect();
        let mut pool = EnginePool::new(model, 4).unwrap();
        assert_eq!(pool.infer_batch(&inputs).unwrap(), expected);
    }

    #[test]
    fn batch_bit_exact_across_worker_counts() {
        let model = mlp(3);
        let inputs = batch(17);
        let reference = EnginePool::new(model.clone(), 1)
            .unwrap()
            .infer_batch(&inputs)
            .unwrap();
        for workers in [2, 3, 4, 8] {
            let got = EnginePool::new(model.clone(), workers)
                .unwrap()
                .infer_batch(&inputs)
                .unwrap();
            assert_eq!(got, reference, "worker count {workers} diverged");
        }
    }

    #[test]
    fn classify_batch_matches_classify() {
        let model = mlp(4);
        let inputs = batch(9);
        let mut engine = Engine::new(model.clone());
        let mut pool = EnginePool::new(model, 3).unwrap();
        let got = pool.classify_batch(&inputs).unwrap();
        for (x, c) in inputs.iter().zip(&got) {
            assert_eq!(engine.classify(x).unwrap(), *c);
        }
    }

    #[test]
    fn bad_input_fails_whole_batch() {
        let mut pool = EnginePool::new(mlp(5), 2).unwrap();
        let mut inputs = batch(6);
        inputs[4] = vec![0.0; 2]; // wrong arity
        assert!(matches!(
            pool.infer_batch(&inputs),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut pool = EnginePool::new(mlp(6), 4).unwrap();
        assert_eq!(pool.infer_batch(&Vec::<Vec<f32>>::new()).unwrap().len(), 0);
    }

    #[test]
    fn inference_count_accumulates() {
        let mut pool = EnginePool::new(mlp(7), 4).unwrap();
        pool.infer_batch(&batch(10)).unwrap();
        assert_eq!(pool.inference_count(), 10);
    }

    #[test]
    fn quant_pool_bit_exact_across_worker_counts() {
        let qmodel = QModel::quantize(&mlp(8)).unwrap();
        let inputs: Vec<Vec<Q16_16>> = batch(11)
            .iter()
            .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
            .collect();
        let reference = QEnginePool::new(qmodel.clone(), 1)
            .unwrap()
            .infer_batch(&inputs)
            .unwrap();
        for workers in [2, 4, 8] {
            let got = QEnginePool::new(qmodel.clone(), workers)
                .unwrap()
                .infer_batch(&inputs)
                .unwrap();
            assert_eq!(got, reference, "worker count {workers} diverged");
        }
    }
}
