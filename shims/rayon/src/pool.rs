//! Persistent work-stealing worker pool backing every parallel iterator in the
//! shim.
//!
//! The first parallel call lazily spawns one worker thread per available core
//! (minus the caller, which always participates); the threads then live for the
//! rest of the process and sleep on a condvar between jobs.  A parallel call
//! therefore costs one mutex lock plus a `notify_all`, not a full
//! `std::thread::scope` setup/teardown per call — the difference between one
//! dispatch and six scope launches for a 3-bit × 2-bit GEMM.
//!
//! Scheduling follows the crossbeam deque design in miniature: the items of a
//! job are dealt into contiguous runs, **in ascending order** (run `w` owns
//! items `[w·per, (w+1)·per)`), so worker 0 owns the lowest-index rows exactly
//! as rayon's recursive slice splitting would assign them.  Each run has an
//! atomic cursor; the owning worker drains its run from the front, and workers
//! whose runs are exhausted steal from the other runs' cursors until no items
//! remain.  Stealing happens at chunk granularity through the shared cursor, so
//! an uneven job (one slow row-block) cannot strand the other workers idle.
//!
//! The dispatching thread blocks until every item has completed, which is what
//! makes the type-erased borrow of the caller's closure sound: no worker can
//! reach the task pointer again once the completion count hits the total.
//!
//! A dispatch made from inside a pool task runs all of its items inline on
//! that task's thread.  The pool has one job slot: a nested job published
//! there would replace the outer one, and a worker that woke after it would
//! never join the outer job.  Running nested work inline keeps every
//! participant on the outer job, at one task per thread.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Whether this thread is running a pool task right now.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Number of pool participants (spawned workers + the calling thread):
/// `RAYON_NUM_THREADS` when set (the real crate's env var), else one per
/// available core.
pub(crate) fn default_thread_count() -> usize {
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(parsed) = value.parse::<usize>() {
            return parsed.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool, spawned on first use.
pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::with_workers(default_thread_count()))
}

/// Type-erased `&(dyn Fn(usize) + Sync)`.
///
/// Safety: the pointee lives on the dispatching thread's stack; [`Pool::dispatch`]
/// blocks until every item of the job has completed, and an exhausted run cursor
/// never yields another index, so no worker dereferences the pointer after
/// `dispatch` returns.
struct Task(*const (dyn Fn(usize) + Sync));

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

/// One contiguous run of item indices with its shared steal cursor.
struct Run {
    /// Next index to hand out; owner and thieves both `fetch_add` here.
    next: AtomicUsize,
    /// One past the last index of the run.
    end: usize,
}

/// One parallel job: the erased task plus its dealt runs and completion state.
struct Job {
    task: Task,
    runs: Vec<Run>,
    total: usize,
    completed: AtomicUsize,
    /// The first task panic's payload, re-raised on the dispatching thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

impl Job {
    /// Drain runs starting at `start_run` (own run first, then steal
    /// cyclically), with [`IN_TASK`] set.  Only a thread outside any task
    /// calls this, and every task panic is caught here, so clearing the flag
    /// afterwards restores it.
    fn execute(&self, start_run: usize) {
        IN_TASK.set(true);
        let num_runs = self.runs.len();
        for offset in 0..num_runs {
            let run = &self.runs[(start_run + offset) % num_runs];
            loop {
                let index = run.next.fetch_add(1, Ordering::Relaxed);
                if index >= run.end {
                    break;
                }
                let task = unsafe { &*self.task.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(index))) {
                    self.panic.lock().unwrap().get_or_insert(payload);
                }
                if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                    *self.finished.lock().unwrap() = true;
                    self.finished_cv.notify_all();
                }
            }
        }
        IN_TASK.set(false);
    }
}

/// Publication slot the workers watch for new jobs.
struct JobSlot {
    job: Option<Arc<Job>>,
    epoch: u64,
}

/// State shared between the dispatching threads and the workers.
struct Shared {
    slot: Mutex<JobSlot>,
    work_ready: Condvar,
}

/// A persistent pool of worker threads; see the module docs.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    /// Participants per dispatch: spawned workers + the calling thread.
    workers: usize,
}

impl Pool {
    /// Build a pool with `workers` total participants (spawning `workers - 1`
    /// threads).  The global pool sizes itself from [`default_thread_count`];
    /// tests build small private pools to exercise stealing deterministically.
    ///
    /// Pools are **process-lifetime**: the spawned workers are detached and
    /// sleep on the condvar forever once their `Pool` is dropped (there is no
    /// shutdown path, matching the intended single-global-pool use).  Do not
    /// create pools in a loop.
    pub(crate) fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                job: None,
                epoch: 0,
            }),
            work_ready: Condvar::new(),
        });
        for index in 1..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{index}"))
                .spawn(move || worker_loop(&shared, index))
                .expect("failed to spawn rayon-shim worker");
        }
        Self { shared, workers }
    }

    /// Run `task(i)` for every `i in 0..total`, distributing the indices over the
    /// pool.  Blocks until every index has completed; the first panic from
    /// `task` is re-raised on the calling thread, with its own payload, after
    /// the job drains.  Called from inside a pool task, it runs every index
    /// inline on the calling thread, in order (see the module docs).
    pub(crate) fn dispatch(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if self.workers == 1 || total == 1 || IN_TASK.get() {
            for index in 0..total {
                task(index);
            }
            return;
        }

        let participants = self.workers.min(total);
        // Erase the borrow's lifetime; sound because this function blocks until
        // every item completes (see the `Task` safety comment).
        let erased: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job {
            task: Task(erased),
            runs: deal_runs(total, participants)
                .into_iter()
                .map(|(start, end)| Run {
                    next: AtomicUsize::new(start),
                    end,
                })
                .collect(),
            total,
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        });

        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.epoch += 1;
            slot.job = Some(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();

        // The caller is participant 0 and owns the lowest-index run.
        job.execute(0);
        let mut finished = job.finished.lock().unwrap();
        while !*finished {
            finished = job.finished_cv.wait(finished).unwrap();
        }
        drop(finished);

        // Retire the job so idle workers stop examining its (now dead) task.
        let mut slot = self.shared.slot.lock().unwrap();
        if slot.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
            slot.job = None;
        }
        drop(slot);

        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Deal `total` items into at most `participants` contiguous ascending runs:
/// run `w` covers `[w·per, min((w+1)·per, total))`.  Matching rayon's recursive
/// splitting, the *first* worker owns the *lowest* indices (the seed shim dealt
/// runs off the tail with `split_off`, handing worker 0 the highest rows and
/// inverting the cache-adjacency the benches assume).
pub(crate) fn deal_runs(total: usize, participants: usize) -> Vec<(usize, usize)> {
    debug_assert!(participants >= 1);
    let per = total.div_ceil(participants);
    (0..participants)
        .map(|w| (w * per, ((w + 1) * per).min(total)))
        .filter(|(start, end)| start < end)
        .collect()
}

/// Body of each spawned worker: wait for a fresh epoch, help drain it, repeat.
fn worker_loop(shared: &Shared, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.epoch != last_epoch {
                    if let Some(job) = slot.job.as_ref() {
                        last_epoch = slot.epoch;
                        break Arc::clone(job);
                    }
                    // A retired epoch: remember it so we sleep instead of spinning.
                    last_epoch = slot.epoch;
                }
                slot = shared.work_ready.wait(slot).unwrap();
            }
        };
        job.execute(index % job.runs.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn runs_are_dealt_ascending_and_contiguous() {
        let runs = deal_runs(10, 3);
        assert_eq!(runs, vec![(0, 4), (4, 8), (8, 10)]);
        // Worker 0 owns the lowest indices (the seed shim's split_off dealt the
        // tail first).
        assert_eq!(runs[0].0, 0);
        let runs = deal_runs(2, 8);
        assert_eq!(runs, vec![(0, 1), (1, 2)]);
        assert_eq!(deal_runs(0, 4), vec![]);
    }

    #[test]
    fn private_pool_visits_every_index_once() {
        let pool = Pool::with_workers(4);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            pool.dispatch(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 3, "index {i}");
        }
    }

    #[test]
    fn uneven_items_are_stolen_not_stranded() {
        // One run holds a slow item; the other workers must steal the rest of
        // that run's chunk instead of idling, so the whole job still finishes.
        let pool = Pool::with_workers(4);
        let done = AtomicUsize::new(0);
        pool.dispatch(64, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_dispatches_reuse_the_pool() {
        let pool = Pool::with_workers(3);
        let sum = AtomicU64::new(0);
        for round in 0..10u64 {
            pool.dispatch(32, &|i| {
                sum.fetch_add(round * 32 + i as u64, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..320u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_to_the_caller() {
        let pool = Pool::with_workers(2);
        pool.dispatch(16, &|i| {
            if i == 7 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn a_dispatch_from_inside_a_task_runs_inline_on_the_task_thread() {
        let pool = Pool::with_workers(2);
        // The outer tasks meet, so they run on two threads.  They meet again
        // once task 1's nested job is done, so task 0 dispatches while the
        // other thread is free to take a share of a job the pool published.
        let meet = Barrier::new(2);
        let outer: Vec<Mutex<Option<ThreadId>>> = (0..2).map(|_| Mutex::default()).collect();
        let nested: Vec<Mutex<Vec<ThreadId>>> = (0..2).map(|_| Mutex::default()).collect();
        pool.dispatch(2, &|i| {
            meet.wait();
            *outer[i].lock().unwrap() = Some(thread::current().id());
            if i == 0 {
                meet.wait();
            }
            pool.dispatch(64, &|_| {
                nested[i].lock().unwrap().push(thread::current().id());
                thread::yield_now();
            });
            if i == 1 {
                meet.wait();
            }
        });
        let outer: Vec<ThreadId> = outer
            .into_iter()
            .map(|id| id.into_inner().unwrap().expect("every outer task ran"))
            .collect();
        assert_ne!(outer[0], outer[1]);
        for (i, ran) in nested.into_iter().enumerate() {
            let ran = ran.into_inner().unwrap();
            assert_eq!(ran.len(), 64, "outer task {i}");
            assert!(
                ran.iter().all(|&id| id == outer[i]),
                "outer task {i}'s nested items left its thread"
            );
        }
    }

    #[test]
    fn a_nested_panic_reaches_the_outer_caller_and_the_pool_serves_again() {
        let pool = Pool::with_workers(2);
        let meet = Barrier::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|_| {
                meet.wait();
                pool.dispatch(4, &|j| {
                    if j == 2 {
                        panic!("nested boom");
                    }
                });
            })
        }))
        .expect_err("the nested panic reaches the outer caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"nested boom"));
        // The unwinding task restored the flag, so this thread's next
        // dispatch is top-level again and both threads take a task.
        assert!(!IN_TASK.get());
        let ran = Mutex::new(Vec::new());
        pool.dispatch(2, &|_| {
            meet.wait();
            ran.lock().unwrap().push(thread::current().id());
        });
        let ran = ran.into_inner().unwrap();
        assert_ne!(ran[0], ran[1]);
    }

    #[test]
    fn zero_and_single_item_jobs_run_inline() {
        let pool = Pool::with_workers(4);
        pool.dispatch(0, &|_| panic!("no items expected"));
        let hit = AtomicUsize::new(0);
        pool.dispatch(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
