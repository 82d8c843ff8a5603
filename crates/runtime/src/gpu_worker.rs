//! The process-wide GPU device worker.
//!
//! One long-lived thread runs the GPU side of every executor run, as a
//! type-erased job submitted by the run's caller; the caller itself is
//! the run's CPU worker (see [`join`]). The thread is started lazily, on
//! the first run whose plan places a subgraph on the GPU, and lives for
//! the rest of the process, like the kernel pool in `vendor/rayon`.
//!
//! # Lifetimes
//!
//! A job borrows the caller's stack (the run's queues, slots and plan).
//! The queue holds only a raw pointer to it, and [`join`] does not
//! return — nor unwind — until the job's latch has been released, so the
//! pointer never outlives the frame it points into. This is the argument
//! `vendor/rayon`'s `Job` makes for its parallel regions.
//!
//! # Progress
//!
//! Concurrent runs queue their GPU jobs FIFO on the one worker. That
//! cannot deadlock: the job at the head of the queue waits only on its
//! own run's CPU side, which runs on that run's caller thread and is
//! never shared with another run, so the head job always completes and
//! the next one starts. The one way to break this is to call [`join`]
//! from inside a GPU job (the job would wait behind itself); executor
//! runs never nest.
//!
//! # Panics
//!
//! A panic in a job is caught on the worker, which stays alive for the
//! next job, and is re-raised on the caller once the caller's own side
//! has returned — what `std::thread::scope` does for a panicking scoped
//! thread.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, Once};
use std::thread::{self, Thread};

/// Run `gpu` on the GPU worker and `cpu` on the calling thread, and
/// return once both have finished. A panic on either side is re-raised
/// here after both have finished; the caller's panic wins if both panic.
///
/// Either side may wait on the other (the executor's two device loops
/// trigger each other), so each must end on its own once the other
/// has panicked — the executor's loops send each other `Stop` when they
/// unwind.
pub(crate) fn join<G: FnOnce() + Send, C: FnOnce()>(gpu: G, cpu: C) {
    let job = StackJob {
        f: UnsafeCell::new(Some(gpu)),
        panic: UnsafeCell::new(None),
        done: AtomicBool::new(false),
        caller: thread::current(),
    };
    // SAFETY: `job` stays on this frame until `wait` has seen its latch
    // released, which is the job's last access to it; `cpu` cannot
    // unwind past the wait because its panic is caught first.
    unsafe { submit(job.as_job_ref()) };
    let cpu_result = catch_unwind(AssertUnwindSafe(cpu));
    let gpu_panic = job.wait();
    if let Err(payload) = cpu_result {
        resume_unwind(payload);
    }
    if let Some(payload) = gpu_panic {
        resume_unwind(payload);
    }
}

/// A job on its submitter's stack: the closure, the panic it may leave,
/// and the latch the submitter waits on.
struct StackJob<F> {
    f: UnsafeCell<Option<F>>,
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    /// The latch: set by the worker as its last access to the job.
    done: AtomicBool,
    caller: Thread,
}

impl<F: FnOnce() + Send> StackJob<F> {
    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            execute: execute::<F>,
        }
    }

    /// Block until the worker has run the job; return its panic, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        while !self.done.load(Ordering::Acquire) {
            thread::park();
        }
        // SAFETY: the worker wrote `panic` before releasing the latch
        // and never touches the job again.
        unsafe { (*self.panic.get()).take() }
    }
}

/// Run the job behind `data` (a `StackJob<F>`) and release its latch.
///
/// # Safety
/// `data` must point to a live `StackJob<F>` whose submitter is blocked
/// in `wait`, and each job must be executed once.
unsafe fn execute<F: FnOnce() + Send>(data: *const ()) {
    let job = &*data.cast::<StackJob<F>>();
    let f = (*job.f.get()).take().expect("job executed twice");
    if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
        *job.panic.get() = Some(payload);
    }
    // Once `done` is set the submitter may return and free the job, so
    // take what the wake-up needs first.
    let caller = job.caller.clone();
    job.done.store(true, Ordering::Release);
    caller.unpark();
}

/// A type-erased pointer to a `StackJob` and the function that runs it.
struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `StackJob<F>` with `F: Send` (enforced by
// `join`): the worker takes and runs `f` and writes `panic` (a `Send`
// payload) before it sets `done`, and the submitter reads `panic` only
// after seeing `done`; `done` is atomic and `caller` (`Thread`) is
// `Send + Sync`. `execute` is a plain function pointer.
unsafe impl Send for JobRef {}

static QUEUE: Mutex<VecDeque<JobRef>> = Mutex::new(VecDeque::new());
static READY: Condvar = Condvar::new();
static START: Once = Once::new();

/// Queue `job` for the GPU worker, starting the worker on first use.
///
/// # Safety
/// See [`execute`]: the job must outlive its execution.
unsafe fn submit(job: JobRef) {
    START.call_once(|| {
        thread::Builder::new()
            .name("duet-gpu-worker".into())
            .spawn(worker_loop)
            .expect("spawn the GPU device worker");
    });
    QUEUE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(job);
    READY.notify_one();
}

fn worker_loop() {
    loop {
        let job = {
            let mut queue = QUEUE.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = READY.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: `submit`'s contract; jobs are popped, hence run, once.
        unsafe { (job.execute)(job.data) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_job_reraises_on_the_caller_and_the_worker_survives() {
        let first = Mutex::new(None);
        let err = catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    *first.lock().unwrap() = Some(thread::current().id());
                    panic!("gpu side failed");
                },
                || {},
            )
        }))
        .expect_err("the job's panic reaches the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"gpu side failed"));

        // The same worker thread, not the caller, runs the next job.
        let mut second = None;
        let mut caller_ran = false;
        join(
            || second = Some(thread::current().id()),
            || caller_ran = true,
        );
        assert!(caller_ran);
        assert_eq!(second, *first.lock().unwrap());
        assert_ne!(second, Some(thread::current().id()));
    }

    #[test]
    fn caller_panic_waits_for_the_job_then_reraises() {
        let ran = &AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel();
        let err = catch_unwind(AssertUnwindSafe(|| {
            join(
                // The job can finish only after the caller's side has
                // started to fail, so `join` must wait for it.
                move || {
                    rx.recv().unwrap();
                    ran.store(true, Ordering::SeqCst);
                },
                || {
                    tx.send(()).unwrap();
                    panic!("cpu side failed");
                },
            )
        }))
        .expect_err("the caller's panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"cpu side failed"));
        assert!(ran.load(Ordering::SeqCst), "join returned before its job");
    }
}
