//! Offline stand-in for the `loom` concurrency model checker.
//!
//! [`model`] runs a closure repeatedly, exploring **every** interleaving of
//! the shim atomics' operations across the threads the closure spawns via
//! [`thread::spawn`]. Exploration is a depth-first search over scheduling
//! decision paths: execution is fully serialized by a baton-passing
//! scheduler (only one model thread runs at a time), every atomic operation
//! is a yield point, and after each execution the recorded decision path is
//! advanced to the next unexplored branch. Because exactly one thread runs
//! between yield points, the decision sequence is deterministic and replay
//! is exact.
//!
//! Decisions are recorded *only* at atomic-op yields — each decision picks
//! which thread executes its next operation. Thread spawn, join handback,
//! and exit transfer the baton deterministically without branching: those
//! transitions touch no shared state, so branching on them would multiply
//! the tree by orders of magnitude without adding one distinguishable
//! schedule (a simple partial-order reduction). The DFS leaf count is
//! therefore exactly the number of distinct operation interleavings, e.g.
//! 6!/(2!·2!·2!) = 90 executions for three threads of two operations each.
//!
//! Outside a model run the shim types are inert: [`sync::atomic::AtomicUsize`]
//! is a `#[repr(transparent)]`-equivalent wrapper over the std atomic whose
//! operations first check a thread-local for an active model (a no-op check
//! in production code paths), so a crate can switch its atomic imports to the
//! shim under a cargo feature without changing runtime behavior of normal
//! builds.
//!
//! The scope is deliberately small — just what the permit pool and the
//! cache model need: `AtomicUsize`, `AtomicBool`, `thread::spawn`
//! with value-returning joins, deadlock detection, and panic propagation.
//! Like the sibling `proptest-shim`/`criterion-shim` crates, this exists so
//! the repository model-checks offline; swap in the real `loom` when a
//! registry is available.
//!
//! ```
//! use loom_shim::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let executions = loom_shim::model(|| {
//!     let x = Arc::new(AtomicUsize::new(0));
//!     let x2 = Arc::clone(&x);
//!     let h = loom_shim::thread::spawn(move || x2.fetch_add(1, Ordering::SeqCst));
//!     x.fetch_add(2, Ordering::SeqCst);
//!     h.join();
//!     assert_eq!(x.load(Ordering::SeqCst), 3);
//! });
//! assert!(executions > 1, "both spawn orders must be explored");
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Hard ceiling on executions explored per [`model`] call. Hitting it means
/// the modeled closure has too many yield points to enumerate exhaustively;
/// shrink the model rather than raising the cap.
const EXECUTION_CAP: usize = 200_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    /// Blocked joining the thread with this id.
    Blocked(usize),
    Finished,
}

struct Inner {
    states: Vec<ThreadState>,
    /// Threads owed a *free* (decision-less) resumption: a joiner whose
    /// target finished, or a spawner whose child reached its first park.
    /// Resuming them runs no shared-memory operation — they advance to
    /// their next atomic-op yield and only *that* placement is a decision —
    /// so branching on the resume order would multiply the DFS tree without
    /// adding distinguishable schedules (partial-order reduction).
    pass: Vec<bool>,
    /// Id of the thread currently holding the baton.
    current: usize,
    /// Decision prefix to replay from the previous execution.
    replay: Vec<usize>,
    /// Decisions taken this execution: (choice, number of options).
    taken: Vec<(usize, usize)>,
    abort: bool,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Model {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// OS threads reused across this model call's executions. Exploration
    /// runs thousands of executions, each spawning the same few model
    /// threads — per-execution `std::thread::spawn` would dominate the
    /// wall clock by an order of magnitude.
    pool: Arc<WorkerPool>,
}

enum Job {
    Run(Box<dyn FnOnce() + Send>),
    Exit,
}

struct WorkerPool {
    tx: Mutex<std::sync::mpsc::Sender<Job>>,
    rx: Arc<Mutex<std::sync::mpsc::Receiver<Job>>>,
    idle: Arc<std::sync::atomic::AtomicUsize>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    fn new() -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        Self {
            tx: Mutex::new(tx),
            rx: Arc::new(Mutex::new(rx)),
            idle: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Runs `job` on an idle worker, growing the pool if none is free.
    /// Dispatch happens only from the baton holder, so the idle count can
    /// at worst lag behind (spawning a spare worker), never deadlock.
    fn dispatch(&self, job: Box<dyn FnOnce() + Send>) {
        use std::sync::atomic::Ordering::SeqCst;
        if self.idle.load(SeqCst) > 0 {
            self.idle.fetch_sub(1, SeqCst);
        } else {
            let rx = Arc::clone(&self.rx);
            let idle = Arc::clone(&self.idle);
            let worker = std::thread::spawn(move || loop {
                let job = {
                    let g = rx.lock().unwrap_or_else(|p| p.into_inner());
                    g.recv()
                };
                match job {
                    Ok(Job::Run(f)) => {
                        f();
                        idle.fetch_add(1, SeqCst);
                    }
                    Ok(Job::Exit) | Err(_) => return,
                }
            });
            self.handles
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(worker);
        }
        self.tx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .send(Job::Run(job))
            .expect("loom-shim: worker pool channel closed");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|p| p.into_inner()));
        if let Ok(tx) = self.tx.lock() {
            for _ in 0..handles.len() {
                let _ = tx.send(Job::Exit);
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Model>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Model>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<Model>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Yield point invoked by every shim atomic operation. A no-op unless the
/// calling thread belongs to an active model run.
pub(crate) fn yield_point() {
    if let Some((model, me)) = current() {
        model.schedule(me);
    }
}

impl Model {
    fn new(replay: Vec<usize>, pool: Arc<WorkerPool>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                states: vec![ThreadState::Runnable],
                pass: vec![false],
                current: 0,
                replay,
                taken: Vec::new(),
                abort: false,
                panic: None,
            }),
            cv: Condvar::new(),
            pool,
        }
    }

    /// Locks the scheduler state, shrugging off poisoning: a panicking model
    /// thread must not cascade into aborts in sibling threads' teardown.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Hands the baton onward after the caller parked (at an op yield, in a
    /// blocked join, in spawn, or by finishing).
    ///
    /// Free-pass threads are resumed first, deterministically: their
    /// resumption executes no shared-memory operation, so branching on it
    /// would only duplicate schedules. A *decision* is recorded exactly when
    /// the baton goes to a thread parked at an atomic-op yield, because the
    /// chosen thread immediately executes its operation — the DFS tree's
    /// leaves are therefore precisely the distinct operation interleavings.
    fn advance(&self, g: &mut Inner) {
        // Joiners whose target finished get a free resumption.
        loop {
            let mut changed = false;
            for i in 0..g.states.len() {
                if let ThreadState::Blocked(t) = g.states[i] {
                    if g.states[t] == ThreadState::Finished {
                        g.states[i] = ThreadState::Runnable;
                        g.pass[i] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if let Some(t) =
            (0..g.states.len()).find(|&i| g.states[i] == ThreadState::Runnable && g.pass[i])
        {
            g.current = t;
            return;
        }
        let options: Vec<usize> = g
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ThreadState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if options.is_empty() {
            if !g.states.iter().all(|s| *s == ThreadState::Finished) {
                g.abort = true;
                if g.panic.is_none() {
                    g.panic = Some(Box::new(
                        "loom-shim: deadlock — every unfinished thread is blocked in join",
                    ));
                }
            }
            return;
        }
        let d = g.taken.len();
        let choice = if d < g.replay.len() { g.replay[d] } else { 0 };
        debug_assert!(choice < options.len(), "replayed divergent decision path");
        let choice = choice.min(options.len() - 1);
        g.taken.push((choice, options.len()));
        g.current = options[choice];
    }

    /// The atomic-op yield point: decide who executes the next operation,
    /// and if the baton went elsewhere, sleep until a later decision picks
    /// this thread (its operation then runs immediately on wake).
    fn schedule(self: &Arc<Self>, me: usize) {
        let mut g = self.lock();
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
        self.advance(&mut g);
        if g.current != me || g.abort {
            self.cv.notify_all();
            while g.current != me && !g.abort {
                g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        }
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
    }

    /// Registers a new model thread; it starts runnable but does not run
    /// until spawn hands it the baton.
    fn register(&self) -> usize {
        let mut g = self.lock();
        g.states.push(ThreadState::Runnable);
        g.pass.push(false);
        g.states.len() - 1
    }

    /// First wait of a freshly spawned model thread: park until spawn hands
    /// over the baton. Returns false if the model aborted before this
    /// thread ever ran.
    fn first_wait(&self, me: usize) -> bool {
        let mut g = self.lock();
        while g.current != me && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        !g.abort
    }

    /// Parks the spawning thread while its child runs to the child's first
    /// yield (or to completion), then resumes the spawner with a free pass.
    /// Starting a child is not a decision: nothing shared happens before
    /// the child's first op yield, and that yield decides placement.
    fn spawn_handoff(self: &Arc<Self>, me: usize, child: usize) {
        let mut g = self.lock();
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
        g.pass[me] = true;
        g.current = child;
        self.cv.notify_all();
        while g.current != me && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        g.pass[me] = false;
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
    }

    /// Blocks `me` until `target` finishes. An already-finished target
    /// means join is invisible — no park, no decision.
    fn join_wait(self: &Arc<Self>, me: usize, target: usize) {
        let mut g = self.lock();
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
        if g.states[target] == ThreadState::Finished {
            return;
        }
        g.states[me] = ThreadState::Blocked(target);
        self.advance(&mut g);
        self.cv.notify_all();
        while g.current != me && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        g.pass[me] = false;
        if g.abort {
            drop(g);
            panic!("loom-shim: model aborted");
        }
    }

    /// Marks `me` finished (recording its panic payload, if any) and passes
    /// the baton onward.
    fn thread_exit(self: &Arc<Self>, me: usize, panicked: Option<Box<dyn std::any::Any + Send>>) {
        let mut g = self.lock();
        g.states[me] = ThreadState::Finished;
        if let Some(p) = panicked {
            if g.panic.is_none() {
                g.panic = Some(p);
            }
            g.abort = true;
        }
        if !g.abort {
            // Deadlock here is recorded in `panic` and surfaced by model();
            // nothing to unwind — this thread is already done.
            self.advance(&mut g);
        }
        self.cv.notify_all();
    }

    /// Blocks the driver until every model thread has finished.
    fn wait_all_finished(&self) {
        let mut g = self.lock();
        while !g.states.iter().all(|s| *s == ThreadState::Finished) {
            if g.abort {
                self.cv.notify_all();
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Advances the DFS: next decision path after `taken`, or `None` when the
/// whole tree is explored.
fn next_replay(taken: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut path = taken.to_vec();
    while let Some((choice, options)) = path.pop() {
        if choice + 1 < options {
            let mut replay: Vec<usize> = path.iter().map(|&(c, _)| c).collect();
            replay.push(choice + 1);
            return Some(replay);
        }
    }
    None
}

/// Exhaustively explores every interleaving of `f`'s model threads,
/// returning the number of executions. Panics (with the original payload)
/// if any execution panics, including assertion failures inside `f` and
/// join deadlocks.
pub fn model<F: Fn()>(f: F) -> usize {
    assert!(
        current().is_none(),
        "loom-shim: model() calls cannot nest inside a model thread"
    );
    let pool = Arc::new(WorkerPool::new());
    let mut replay: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        assert!(
            executions <= EXECUTION_CAP,
            "loom-shim: exceeded {EXECUTION_CAP} executions — shrink the model"
        );
        let m = Arc::new(Model::new(std::mem::take(&mut replay), Arc::clone(&pool)));
        set_current(Some((Arc::clone(&m), 0)));
        let outcome = catch_unwind(AssertUnwindSafe(&f));
        m.thread_exit(0, outcome.err());
        m.wait_all_finished();
        set_current(None);
        let mut g = m.lock();
        if let Some(p) = g.panic.take() {
            drop(g);
            resume_unwind(p);
        }
        match next_replay(&g.taken) {
            Some(next) => replay = next,
            None => break,
        }
    }
    executions
}

/// Model-aware threads. Inside [`model`], spawned threads are scheduled by
/// the interleaving explorer; outside, they are plain `std::thread` threads.
pub mod thread {
    use super::*;

    enum HandleInner<T> {
        Native(std::thread::JoinHandle<T>),
        Model {
            model: Arc<Model>,
            id: usize,
            result: Arc<Mutex<Option<T>>>,
        },
    }

    /// Owned permission to join a thread, mirroring `std::thread::JoinHandle`
    /// except that `join` returns the value directly (a panicked child
    /// aborts the whole model run, so there is no `Err` arm to handle).
    pub struct JoinHandle<T>(HandleInner<T>);

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its value.
        pub fn join(self) -> T {
            match self.0 {
                HandleInner::Native(h) => h.join().unwrap_or_else(|p| resume_unwind(p)),
                HandleInner::Model { model, id, result } => {
                    let (_, me) = current()
                        .expect("loom-shim: model thread handles must be joined inside the model");
                    model.join_wait(me, id);
                    let value = result.lock().unwrap_or_else(|p| p.into_inner()).take();
                    value.expect("loom-shim: joined thread produced no value")
                }
            }
        }
    }

    /// Spawns a thread. Inside a model run the new thread participates in
    /// exhaustive interleaving (spawning is itself a yield point); outside,
    /// this is `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match current() {
            None => JoinHandle(HandleInner::Native(std::thread::spawn(f))),
            Some((model, me)) => {
                let id = model.register();
                let result = Arc::new(Mutex::new(None));
                let slot = Arc::clone(&result);
                let child_model = Arc::clone(&model);
                model.pool.dispatch(Box::new(move || {
                    if !child_model.first_wait(id) {
                        child_model.thread_exit(id, None);
                        return;
                    }
                    set_current(Some((Arc::clone(&child_model), id)));
                    let outcome = catch_unwind(AssertUnwindSafe(f));
                    set_current(None);
                    match outcome {
                        Ok(v) => {
                            *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
                            child_model.thread_exit(id, None);
                        }
                        Err(p) => child_model.thread_exit(id, Some(p)),
                    }
                }));
                model.spawn_handoff(me, id);
                JoinHandle(HandleInner::Model { model, id, result })
            }
        }
    }
}

/// Model-aware drop-ins for `std::sync::atomic`.
pub mod sync {
    /// Shim atomics: each operation is a scheduler yield point inside a
    /// model run and delegates to the identical std operation either way.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        macro_rules! shim_atomic {
            ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
                $(#[$doc])*
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    /// Creates a new atomic with the given initial value.
                    pub const fn new(v: $prim) -> Self {
                        Self(std::sync::atomic::$std::new(v))
                    }

                    /// Loads the value (yield point under a model).
                    pub fn load(&self, order: Ordering) -> $prim {
                        crate::yield_point();
                        self.0.load(order)
                    }

                    /// Stores a value (yield point under a model).
                    pub fn store(&self, v: $prim, order: Ordering) {
                        crate::yield_point();
                        self.0.store(v, order);
                    }

                    /// Swaps the value (yield point under a model).
                    pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                        crate::yield_point();
                        self.0.swap(v, order)
                    }

                    /// Compare-exchange (one yield point: the operation is a
                    /// single atomic transition).
                    pub fn compare_exchange(
                        &self,
                        cur: $prim,
                        new: $prim,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$prim, $prim> {
                        crate::yield_point();
                        self.0.compare_exchange(cur, new, ok, err)
                    }

                    /// Weak compare-exchange; the shim never fails spuriously,
                    /// so this is `compare_exchange`.
                    pub fn compare_exchange_weak(
                        &self,
                        cur: $prim,
                        new: $prim,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.compare_exchange(cur, new, ok, err)
                    }
                }
            };
        }

        shim_atomic!(
            /// Model-aware `AtomicUsize`.
            AtomicUsize,
            AtomicUsize,
            usize
        );
        shim_atomic!(
            /// Model-aware `AtomicBool`.
            AtomicBool,
            AtomicBool,
            bool
        );

        impl AtomicUsize {
            /// Adds to the value, returning the previous value.
            pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
                crate::yield_point();
                self.0.fetch_add(v, order)
            }

            /// Subtracts from the value, returning the previous value.
            pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
                crate::yield_point();
                self.0.fetch_sub(v, order)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::*;

    /// A racy read-modify-write (load then store, not fetch_add) must lose
    /// updates in *some* interleaving — if the explorer were not exhaustive
    /// it could miss the bug this test requires it to find.
    #[test]
    fn exhaustive_exploration_finds_the_lost_update() {
        let lost = Arc::new(std::sync::Mutex::new(0usize));
        let witness = Arc::clone(&lost);
        let executions = model(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        let v = x.load(Ordering::SeqCst);
                        x.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            if x.load(Ordering::SeqCst) == 1 {
                *witness.lock().unwrap() += 1;
            }
        });
        assert!(executions > 1);
        assert!(
            *lost.lock().unwrap() > 0,
            "exhaustive exploration must surface the lost update"
        );
    }

    #[test]
    fn fetch_add_is_atomic_in_every_interleaving() {
        model(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || x.fetch_add(1, Ordering::SeqCst))
                })
                .collect();
            let prevs: Vec<usize> = hs.into_iter().map(|h| h.join()).collect();
            assert_eq!(x.load(Ordering::SeqCst), 2);
            // The two increments observed distinct previous values.
            assert_ne!(prevs[0], prevs[1]);
        });
    }

    #[test]
    fn assertion_failures_propagate_with_their_payload() {
        let r = std::panic::catch_unwind(|| {
            model(|| {
                let x = AtomicUsize::new(7);
                assert_eq!(x.load(Ordering::SeqCst), 8, "intentional");
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn child_panics_abort_the_run_and_propagate() {
        let r = std::panic::catch_unwind(|| {
            model(|| {
                let h = thread::spawn(|| panic!("child failure"));
                // The parent may or may not reach the join before the abort.
                h.join();
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn interleaving_count_matches_closed_form() {
        // Two threads racing one fetch_add each: exactly the 2 operation
        // orders, nothing more — spawn/join/exit must not branch the DFS.
        let two_ops = || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let h = thread::spawn(move || x2.fetch_add(1, Ordering::SeqCst));
            x.fetch_add(1, Ordering::SeqCst);
            h.join();
        };
        assert_eq!(model(two_ops), 2);
        assert_eq!(model(two_ops), 2, "exploration must be deterministic");
    }

    #[test]
    fn shim_atomics_are_inert_outside_a_model() {
        let x = AtomicUsize::new(41);
        assert_eq!(x.fetch_add(1, Ordering::SeqCst), 41);
        assert_eq!(x.load(Ordering::SeqCst), 42);
        assert_eq!(
            x.compare_exchange(42, 7, Ordering::SeqCst, Ordering::SeqCst),
            Ok(42)
        );
        let h = thread::spawn(|| 3usize);
        assert_eq!(h.join(), 3);
    }

    /// Three threads with two yield points each: exercises the DFS deep
    /// enough that replay paths of mixed length are advanced and popped,
    /// and pins the leaf count to the multinomial 6!/(2!·2!·2!).
    #[test]
    fn three_thread_model_conserves_the_counter() {
        let executions = model(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        x.fetch_add(1, Ordering::SeqCst);
                        x.fetch_sub(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(x.load(Ordering::SeqCst), 0);
        });
        assert_eq!(executions, 90, "6!/(2!·2!·2!) operation interleavings");
    }
}
