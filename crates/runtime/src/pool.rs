//! An internally managed worker thread pool.
//!
//! Paper §3: the system software "*internally* manages two thread pools,
//! Networking Pool and Aggregation Pool, limiting the number of active
//! threads and reusing them" — avoiding the cost of creating a thread per
//! connection and of generic OS scheduling. This pool is that primitive:
//! a fixed set of workers pulling closures from a channel. The runtime
//! itself runs none: both roles belong to the wire's own threads (TCP's
//! resident link readers and its round's caller, which sends on every
//! link; `Sim`'s caller), and the round's caller stages each stream into
//! Sigma as it holds it. The pool stays as the measured primitive behind
//! `runtime.pool.dispatch_us`.

use crossbeam::channel::{self, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool executing submitted closures.
///
/// Dropping the pool closes the queue and joins the workers (pending jobs
/// finish first). A job that panics unwinds on its worker and is
/// dropped; the worker goes on to the next job, so the pool always has
/// `size` live workers.
///
/// # Examples
///
/// ```
/// use cosmic_runtime::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(4, "aggregation");
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let counter = Arc::clone(&counter);
///     pool.execute(move || {
///         counter.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// drop(pool); // joins workers
/// assert_eq!(counter.load(Ordering::SeqCst), 100);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Spawns `size` named worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, or if the OS refuses to spawn a thread
    /// at construction time (unrecoverable infrastructure collapse — no
    /// pool could function).
    #[allow(clippy::expect_used)]
    pub fn new(size: usize, name: &str) -> Self {
        assert!(size > 0, "thread pool needs at least one worker");
        let (sender, receiver) = channel::unbounded::<Job>();
        let workers = (0..size)
            .map(|i| {
                let receiver = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("cosmic-{name}-{i}"))
                    .spawn(move || {
                        // Reused worker: one blocking recv loop, no
                        // per-task thread creation. A panicking job
                        // must not take the worker with it: `wait_idle`
                        // counts on `size` workers reaching its barrier.
                        while let Ok(job) = receiver.recv() {
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { sender: Some(sender), workers, size }
    }

    /// Submits a job for execution on some worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.submit_inner(Box::new(job));
    }

    fn submit_inner(&self, job: Job) {
        // The sender lives until Drop and the workers hold the receiver
        // open as long as it does, so submission can only fail mid-Drop
        // — unreachable through the public API, and dropping the job is
        // then the correct outcome.
        if let Some(sender) = &self.sender {
            let _ = sender.send(job);
        }
    }

    /// Blocks until every job submitted *before this call* has finished.
    ///
    /// Implemented by submitting one barrier job per worker and waiting
    /// on them jointly, which drains the queue ahead of the barriers.
    pub fn wait_idle(&self) {
        let wg = crossbeam::sync::WaitGroup::new();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(self.size + 1));
        for _ in 0..self.size {
            let wg = wg.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            self.submit_inner(Box::new(move || {
                barrier.wait();
                drop(wg);
            }));
        }
        barrier.wait();
        wg.wait();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel ends the workers' recv loops after the
        // queue drains.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs_before_drop() {
        let pool = ThreadPool::new(3, "test");
        assert_eq!(pool.size, 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..250 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn wait_idle_flushes_prior_jobs() {
        let pool = ThreadPool::new(2, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        // Pool is still usable afterwards.
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 65);
    }

    #[test]
    fn a_panicking_job_does_not_cost_the_pool_a_worker() {
        let pool = ThreadPool::new(2, "panic");
        for _ in 0..3 {
            pool.execute(|| panic!("job panics on its worker"));
        }
        // With a worker lost, the barrier in `wait_idle` never fills.
        pool.wait_idle();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn workers_are_reused_not_respawned() {
        // All jobs must run on exactly `size` distinct threads.
        let pool = ThreadPool::new(2, "reuse");
        let ids = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        for _ in 0..100 {
            let ids = Arc::clone(&ids);
            pool.execute(move || {
                ids.lock().insert(std::thread::current().id());
            });
        }
        drop(pool);
        assert!(ids.lock().len() <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ThreadPool::new(0, "nope");
    }
}
