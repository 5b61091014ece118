//! Shared worker machinery: the scoped [`parallel_map`] fan-out the
//! experiment matrix uses, and the long-lived bounded [`WorkerPool`] the
//! batch-simulation service schedules jobs on.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Runs `f` over `items` on `threads` workers, returning the results in
/// item order. Items are handed out from a shared queue, so reassembly
/// is deterministic regardless of scheduling.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    let workers = threads.clamp(1, n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Pop from the front so execution order follows item
                // order (single-threaded runs are exactly serial).
                let job = {
                    let mut q = queue.lock().expect("queue lock");
                    if q.is_empty() {
                        None
                    } else {
                        Some(q.remove(0))
                    }
                };
                let Some((i, item)) = job else { break };
                let r = f(i, item);
                results.lock().expect("results lock")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect()
}

/// Returned by [`WorkerPool::try_submit`] when the bounded queue is at
/// capacity (or the pool is shutting down); carries the rejected job
/// back to the caller so nothing is silently dropped.
#[derive(Debug)]
pub struct PoolFull<J>(pub J);

/// Cumulative activity of one worker thread, published into the pool's
/// shared snapshot slot after every job.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStat {
    /// Jobs this worker has completed.
    pub jobs: u64,
    /// Wall-clock seconds this worker spent inside the handler.
    pub busy_secs: f64,
}

/// A point-in-time view of the pool for telemetry consumers (the
/// daemon's `metrics` endpoint, `vcfr top`). Reading one never blocks a
/// worker: the per-worker stats live in their own slot, apart from the
/// job-queue lock.
#[derive(Clone, Debug, Default)]
pub struct PoolSnapshot {
    /// Jobs waiting in the bounded queue.
    pub queue_depth: usize,
    /// Jobs a worker is currently running.
    pub in_flight: usize,
    /// Queue capacity (the backpressure bound).
    pub capacity: usize,
    /// Seconds since the pool was created.
    pub uptime_secs: f64,
    /// One entry per worker thread, in spawn order.
    pub workers: Vec<WorkerStat>,
}

impl PoolSnapshot {
    /// Fraction of the pool's lifetime worker `i` spent busy (0 when
    /// the pool is brand new).
    pub fn utilization(&self, i: usize) -> f64 {
        if self.uptime_secs <= 0.0 {
            0.0
        } else {
            (self.workers[i].busy_secs / self.uptime_secs).min(1.0)
        }
    }

    /// Jobs completed across all workers.
    pub fn jobs_completed(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs).sum()
    }
}

struct State<J> {
    queue: VecDeque<J>,
    in_flight: usize,
    shutting_down: bool,
}

struct Shared<J> {
    state: Mutex<State<J>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The shared snapshot slot: workers publish their cumulative
    /// stats here, readers clone it out without touching `state`.
    stats: Mutex<Vec<WorkerStat>>,
    started: Instant,
}

/// A long-lived pool of worker threads draining a bounded job queue.
///
/// Unlike [`parallel_map`] (a scoped, borrow-friendly fan-out over a
/// fixed item list), the pool accepts jobs for as long as it lives and
/// applies backpressure: [`WorkerPool::try_submit`] rejects a job when
/// the queue is full instead of buffering without bound. The service
/// daemon leans on exactly that property to bound its admission queue.
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<Shared<J>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads that each run `handler` over submitted
    /// jobs. At most `capacity` jobs wait in the queue at a time.
    pub fn new<F>(workers: usize, capacity: usize, handler: F) -> WorkerPool<J>
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let n_workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: 0,
                shutting_down: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            stats: Mutex::new(vec![WorkerStat::default(); n_workers]),
            started: Instant::now(),
        });
        let handler = Arc::new(handler);
        let threads = (0..n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut st = shared.state.lock().expect("pool lock");
                        loop {
                            if let Some(j) = st.queue.pop_front() {
                                st.in_flight += 1;
                                shared.not_full.notify_all();
                                break Some(j);
                            }
                            if st.shutting_down {
                                break None;
                            }
                            st = shared.not_empty.wait(st).expect("pool lock");
                        }
                    };
                    let Some(job) = job else { return };
                    let t = Instant::now();
                    // A job that panics costs only itself: the worker
                    // thread lives on and the job still leaves
                    // `in_flight`. Recording the failure is the handler's
                    // business.
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| handler(job)));
                    {
                        let mut stats = shared.stats.lock().expect("stats lock");
                        stats[w].jobs += 1;
                        stats[w].busy_secs += t.elapsed().as_secs_f64();
                    }
                    shared.state.lock().expect("pool lock").in_flight -= 1;
                    // Wake both submitters waiting for space and
                    // drainers waiting for quiescence.
                    shared.not_full.notify_all();
                })
            })
            .collect();
        WorkerPool { shared, workers: Mutex::new(threads) }
    }

    /// Enqueues a job, or returns it in [`PoolFull`] when the queue is
    /// at capacity or the pool is shutting down. Never blocks.
    pub fn try_submit(&self, job: J) -> Result<(), PoolFull<J>> {
        let mut st = self.shared.state.lock().expect("pool lock");
        if st.shutting_down || st.queue.len() >= self.shared.capacity {
            return Err(PoolFull(job));
        }
        st.queue.push_back(job);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue plus jobs a worker is running.
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock().expect("pool lock");
        st.queue.len() + st.in_flight
    }

    /// The current contents of the shared snapshot slot plus queue
    /// occupancy — everything the daemon's `metrics` endpoint reports
    /// about the pool.
    pub fn snapshot(&self) -> PoolSnapshot {
        let (queue_depth, in_flight) = {
            let st = self.shared.state.lock().expect("pool lock");
            (st.queue.len(), st.in_flight)
        };
        PoolSnapshot {
            queue_depth,
            in_flight,
            capacity: self.shared.capacity,
            uptime_secs: self.shared.started.elapsed().as_secs_f64(),
            workers: self.shared.stats.lock().expect("stats lock").clone(),
        }
    }

    /// Blocks until every submitted job has finished.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().expect("pool lock");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.not_full.wait(st).expect("pool lock");
        }
    }

    /// Stops the pool without draining: workers finish their current
    /// job, abandon anything still queued, and are joined. Queued jobs
    /// stay wherever the caller persisted them (the service daemon
    /// re-enqueues them from disk on its next start).
    pub fn stop(&self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutting_down = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for h in self.workers.lock().expect("workers lock").drain(..) {
            let _ = h.join();
        }
    }

    /// Finishes all queued jobs, then stops and joins the workers.
    pub fn shutdown(self) {
        self.drain();
        self.stop();
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(3, 64, move |n: usize| {
            d.fetch_add(n, Ordering::SeqCst);
        });
        for n in 1..=10 {
            pool.try_submit(n).expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn snapshot_reports_completed_work() {
        let pool = WorkerPool::new(2, 16, move |_: usize| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        for n in 0..6 {
            pool.try_submit(n).expect("queue has room");
        }
        pool.drain();
        let snap = pool.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.capacity, 16);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.jobs_completed(), 6);
        assert!(snap.workers.iter().map(|w| w.busy_secs).sum::<f64>() > 0.0);
        assert!(snap.uptime_secs > 0.0);
        for i in 0..2 {
            assert!((0.0..=1.0).contains(&snap.utilization(i)));
        }
        pool.shutdown();
    }

    #[test]
    fn a_job_that_panics_leaves_its_worker_running() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let pool = Arc::new(WorkerPool::new(1, 4, move |n: usize| {
            assert!(n != 0, "job 0 panics");
            r.fetch_add(1, Ordering::SeqCst);
        }));
        pool.try_submit(0).expect("queue has room");
        pool.try_submit(1).expect("queue has room");
        // Drained off-thread, so a pool whose worker died fails the bound
        // instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let drainer = Arc::clone(&pool);
        std::thread::spawn(move || {
            drainer.drain();
            let _ = tx.send(drainer.pending());
        });
        let pending = rx.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(pending, Ok(0), "drain returns with nothing pending");
        assert_eq!(ran.load(Ordering::SeqCst), 1, "job 1 ran on the same worker");
    }

    #[test]
    fn full_queue_applies_backpressure() {
        // One worker parked on a gate so the queue genuinely fills.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let pool = WorkerPool::new(1, 2, move |_: usize| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().expect("gate");
            while !*open {
                open = cv.wait(open).expect("gate");
            }
        });
        pool.try_submit(0).expect("first job admitted");
        // Once the worker takes job 0 (and parks on the gate), both
        // queue slots become free; retry until they are.
        for n in [1usize, 2] {
            while pool.try_submit(n).is_err() {
                std::thread::yield_now();
            }
        }
        let rejected = pool.try_submit(3);
        assert!(matches!(rejected, Err(PoolFull(3))), "queue at capacity rejects");
        let (lock, cv) = &*gate;
        *lock.lock().expect("gate") = true;
        cv.notify_all();
        pool.drain();
        assert_eq!(pool.pending(), 0);
        pool.shutdown();
    }
}
