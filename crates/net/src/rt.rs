//! A deterministic single-threaded async runtime with virtual time.
//!
//! The distributed runtime must be reproducible: the same seed must yield
//! bit-identical executions, including under fault injection. A real
//! multi-threaded executor (and wall-clock timers) would make scheduling
//! racy, so this module hand-rolls the minimal executor the site actors
//! need:
//!
//! * tasks are polled from a FIFO ready queue (no work stealing);
//! * time is **virtual**: it only advances when every task is blocked, by
//!   jumping straight to the earliest pending timer — a million-microsecond
//!   retry backoff costs nothing in wall-clock terms;
//! * wakers are plain task-id pushes onto a shared queue.
//!
//! The executor accepts non-`'static` futures: a [`Runtime`] drops every
//! task it still holds when it is dropped, so actor futures may borrow
//! the federation and query directly.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// A timer waiting for virtual time to reach `at_us`.
struct TimerEntry {
    at_us: f64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earliest deadline first; FIFO among equal deadlines.
        self.at_us
            .total_cmp(&other.at_us)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Wakes a task by pushing its id onto the shared wake queue.
struct TaskWaker {
    id: u64,
    queue: Arc<Mutex<Vec<u64>>>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue
            .lock()
            .expect("wake queue poisoned")
            .push(self.id);
    }
}

struct Inner<'a> {
    now_us: f64,
    next_task: u64,
    next_seq: u64,
    tasks: HashMap<u64, Pin<Box<dyn Future<Output = ()> + 'a>>>,
    ready: VecDeque<u64>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
}

/// Cloneable handle into the runtime, usable from inside tasks.
pub struct Handle<'a> {
    inner: Rc<RefCell<Inner<'a>>>,
}

impl<'a> Clone for Handle<'a> {
    fn clone(&self) -> Self {
        Handle {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<'a> Handle<'a> {
    /// The current virtual time, in microseconds.
    pub fn now_us(&self) -> f64 {
        self.inner.borrow().now_us
    }

    /// Spawns a background task; it is polled until completion or until
    /// [`Runtime::run`] returns, whichever comes first.
    pub fn spawn<F: Future<Output = ()> + 'a>(&self, fut: F) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_task;
        inner.next_task += 1;
        inner.tasks.insert(id, Box::pin(fut));
        inner.ready.push_back(id);
    }

    /// A future resolving once virtual time has advanced by `dur_us`.
    pub fn sleep(&self, dur_us: f64) -> Sleep<'a> {
        Sleep {
            handle: self.clone(),
            at_us: self.now_us() + dur_us.max(0.0),
        }
    }

    fn register_timer(&self, at_us: f64, waker: Waker) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.timers.push(Reverse(TimerEntry { at_us, seq, waker }));
    }
}

/// Sleeps until a fixed virtual-time deadline.
pub struct Sleep<'a> {
    handle: Handle<'a>,
    at_us: f64,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now_us() >= self.at_us {
            Poll::Ready(())
        } else {
            self.handle.register_timer(self.at_us, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The error returned when every task is blocked and no timer is pending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock;

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadlock: every task is blocked and no timer is pending")
    }
}

impl std::error::Error for Deadlock {}

/// The deterministic executor. See the module docs.
pub struct Runtime<'a> {
    inner: Rc<RefCell<Inner<'a>>>,
    woken: Arc<Mutex<Vec<u64>>>,
}

impl<'a> Default for Runtime<'a> {
    fn default() -> Self {
        Runtime::new()
    }
}

impl<'a> Runtime<'a> {
    /// An empty runtime at virtual time zero.
    pub fn new() -> Runtime<'a> {
        Runtime {
            inner: Rc::new(RefCell::new(Inner {
                now_us: 0.0,
                next_task: 0,
                next_seq: 0,
                tasks: HashMap::new(),
                ready: VecDeque::new(),
                timers: BinaryHeap::new(),
            })),
            woken: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle for spawning tasks and sleeping.
    pub fn handle(&self) -> Handle<'a> {
        Handle {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Drives `main` (and every spawned task) to completion; returns
    /// `main`'s output, or [`Deadlock`] when every task is blocked and no
    /// timer is pending. Whenever every task is blocked, virtual time
    /// jumps to the earliest timer. Tasks still pending when `main`
    /// finishes are dropped with the runtime.
    pub fn run<T: 'a>(&self, main: impl Future<Output = T> + 'a) -> Result<T, Deadlock> {
        self.run_driven(main, |_, next| {
            next.map_or(IdleStep::Halt, IdleStep::Advance)
        })
    }
}

impl Drop for Runtime<'_> {
    fn drop(&mut self) {
        // Parked tasks (every site actor's receive loop) hold handles to
        // this runtime: clear the table or it keeps itself, and all that
        // its tasks captured, alive. Dropped outside the borrow, since a
        // task's destructor may use its handle.
        let tasks = std::mem::take(&mut self.inner.borrow_mut().tasks);
        let timers = std::mem::take(&mut self.inner.borrow_mut().timers);
        drop((tasks, timers));
    }
}

/// What an idle driver tells [`Runtime::run_driven`] to do when every
/// task is blocked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleStep {
    /// Advance the virtual clock to this time (µs; clamped to be
    /// monotonic) and keep running. Timers whose deadline has passed
    /// fire; tasks woken by the driver (e.g. through
    /// [`crate::router::Net::inject`]) run.
    Advance(f64),
    /// Nothing will ever arrive: stop with [`Deadlock`].
    Halt,
}

impl<'a> Runtime<'a> {
    /// Drives `main` like [`Runtime::run`], but delegates idle moments
    /// to `on_idle` instead of jumping the virtual clock.
    ///
    /// [`Runtime::run`] is a *simulation* driver: when every task is
    /// blocked, time teleports to the earliest timer. A runtime bridged
    /// to a real network cannot teleport — a pending RPC timer must
    /// race *actual* I/O. `on_idle(now_us, next_timer_us)` is called
    /// whenever no task is ready; a wall-clock driver typically blocks
    /// on its socket queues (up to the next timer's real deadline),
    /// delivers whatever arrived, and returns
    /// [`IdleStep::Advance`]`(wall_elapsed_us)` so virtual time tracks
    /// the wall clock and RPC timeouts become real deadlines.
    ///
    /// # Errors
    ///
    /// Returns [`Deadlock`] when `on_idle` answers [`IdleStep::Halt`].
    pub fn run_driven<T: 'a>(
        &self,
        main: impl Future<Output = T> + 'a,
        mut on_idle: impl FnMut(f64, Option<f64>) -> IdleStep,
    ) -> Result<T, Deadlock> {
        let out: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        self.handle().spawn(async move {
            let value = main.await;
            *out2.borrow_mut() = Some(value);
        });
        loop {
            {
                let mut woken = self.woken.lock().expect("wake queue poisoned");
                let mut inner = self.inner.borrow_mut();
                for id in woken.drain(..) {
                    if inner.tasks.contains_key(&id) && !inner.ready.contains(&id) {
                        inner.ready.push_back(id);
                    }
                }
            }
            let next = self.inner.borrow_mut().ready.pop_front();
            if let Some(id) = next {
                let Some(mut fut) = self.inner.borrow_mut().tasks.remove(&id) else {
                    continue;
                };
                let waker = Waker::from(Arc::new(TaskWaker {
                    id,
                    queue: Arc::clone(&self.woken),
                }));
                let mut cx = Context::from_waker(&waker);
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {}
                    Poll::Pending => {
                        self.inner.borrow_mut().tasks.insert(id, fut);
                    }
                }
                if let Some(value) = out.borrow_mut().take() {
                    return Ok(value);
                }
                continue;
            }
            // Nothing ready: fire any timer already due, otherwise ask
            // the driver how to proceed.
            {
                let mut inner = self.inner.borrow_mut();
                if !self.woken.lock().expect("wake queue poisoned").is_empty() {
                    continue; // a poll raced a wake; loop again
                }
                let due = inner
                    .timers
                    .peek()
                    .is_some_and(|Reverse(t)| t.at_us <= inner.now_us);
                if due {
                    if let Some(Reverse(timer)) = inner.timers.pop() {
                        timer.waker.wake();
                    }
                    continue;
                }
            }
            let (now, next_timer) = {
                let inner = self.inner.borrow();
                (inner.now_us, inner.timers.peek().map(|Reverse(t)| t.at_us))
            };
            match on_idle(now, next_timer) {
                IdleStep::Advance(to_us) => {
                    let mut inner = self.inner.borrow_mut();
                    inner.now_us = inner.now_us.max(to_us);
                }
                IdleStep::Halt => return Err(Deadlock),
            }
        }
    }
}

/// Polls a set of unpinned futures concurrently; resolves to their outputs
/// in input order once all are done.
///
/// Children get their own wakers: a wake re-polls only the child that
/// asked for it, not every pending sibling. (Broadcast re-polling is not
/// just wasted work — a pending `Sleep` registers a fresh timer on every
/// poll, so re-polling N sleepers on each of N wakes multiplies timer
/// entries geometrically and a large join never finishes.)
pub fn join_all<F: Future + Unpin>(futs: Vec<F>) -> JoinAll<F> {
    let n = futs.len();
    let shared = Arc::new(JoinShared {
        woken: Mutex::new((0..n).map(|_| true).collect()),
        parent: Mutex::new(None),
    });
    JoinAll {
        futs: futs.into_iter().map(Some).collect(),
        outs: (0..n).map(|_| None).collect(),
        wakers: (0..n)
            .map(|index| {
                Waker::from(Arc::new(ChildWaker {
                    index,
                    shared: Arc::clone(&shared),
                }))
            })
            .collect(),
        shared,
        pending: n,
    }
}

/// Wake flags shared between a [`JoinAll`] and its children's wakers.
struct JoinShared {
    /// Per-child "poll me again" flags (all start `true`).
    woken: Mutex<Vec<bool>>,
    /// The join's own waker, refreshed on every poll.
    parent: Mutex<Option<Waker>>,
}

/// Wakes child `index`: flags it for re-polling and wakes the join.
struct ChildWaker {
    index: usize,
    shared: Arc<JoinShared>,
}

impl Wake for ChildWaker {
    fn wake(self: Arc<Self>) {
        self.shared.woken.lock().expect("join wake flags poisoned")[self.index] = true;
        let parent = self
            .shared
            .parent
            .lock()
            .expect("join parent waker poisoned")
            .take();
        if let Some(waker) = parent {
            waker.wake();
        }
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    futs: Vec<Option<F>>,
    outs: Vec<Option<F::Output>>,
    wakers: Vec<Waker>,
    shared: Arc<JoinShared>,
    pending: usize,
}

// `JoinAll` never pins its fields structurally (the contained futures are
// themselves `Unpin`), so moving it is always fine.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // Store the parent waker *before* draining the flags: a child
        // woken after the drain finds the waker and re-queues the join.
        *this
            .shared
            .parent
            .lock()
            .expect("join parent waker poisoned") = Some(cx.waker().clone());
        loop {
            let to_poll: Vec<usize> = {
                let mut woken = this.shared.woken.lock().expect("join wake flags poisoned");
                let flagged = woken
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| **w)
                    .map(|(i, _)| i)
                    .collect();
                woken.iter_mut().for_each(|w| *w = false);
                flagged
            };
            if to_poll.is_empty() {
                break;
            }
            for i in to_poll {
                if let Some(fut) = &mut this.futs[i] {
                    let mut child_cx = Context::from_waker(&this.wakers[i]);
                    if let Poll::Ready(value) = Pin::new(fut).poll(&mut child_cx) {
                        this.outs[i] = Some(value);
                        this.futs[i] = None;
                        this.pending -= 1;
                    }
                }
            }
        }
        if this.pending == 0 {
            Poll::Ready(
                this.outs
                    .iter_mut()
                    .map(|o| o.take().expect("output set"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

/// Resolves `fut` or gives up after `dur_us` of virtual time.
pub async fn timeout<'a, T, F: Future<Output = T> + Unpin>(
    handle: &Handle<'a>,
    dur_us: f64,
    fut: F,
) -> Option<T> {
    let mut sleep = handle.sleep(dur_us);
    let mut fut = fut;
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(value) = Pin::new(&mut fut).poll(cx) {
            return Poll::Ready(Some(value));
        }
        if Pin::new(&mut sleep).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn virtual_time_jumps_to_timers() {
        let rt = Runtime::new();
        let h = rt.handle();
        let h2 = h.clone();
        let t = rt
            .run(async move {
                h2.sleep(1_000_000.0).await;
                h2.now_us()
            })
            .unwrap();
        assert_eq!(t, 1_000_000.0);
        assert!(h.now_us() >= 1_000_000.0);
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let rt = Runtime::new();
        let h = rt.handle();
        let log: Rc<RefCell<Vec<(u32, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(1u32, 30.0), (2, 10.0), (3, 20.0)] {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            h.spawn(async move {
                h2.sleep(delay).await;
                log2.borrow_mut().push((i, h2.now_us()));
            });
        }
        let h2 = h.clone();
        rt.run(async move { h2.sleep(100.0).await }).unwrap();
        assert_eq!(*log.borrow(), vec![(2, 10.0), (3, 20.0), (1, 30.0)]);
    }

    #[test]
    fn join_all_preserves_order() {
        let rt = Runtime::new();
        let h = rt.handle();
        let h2 = h.clone();
        let outs = rt
            .run(async move {
                let futs: Vec<Pin<Box<dyn Future<Output = u32>>>> = vec![
                    {
                        let h = h2.clone();
                        Box::pin(async move {
                            h.sleep(50.0).await;
                            1
                        })
                    },
                    {
                        let h = h2.clone();
                        Box::pin(async move {
                            h.sleep(10.0).await;
                            2
                        })
                    },
                ];
                join_all(futs).await
            })
            .unwrap();
        assert_eq!(outs, vec![1, 2]);
    }

    #[test]
    fn timeout_fires_on_silence() {
        let rt = Runtime::new();
        let h = rt.handle();
        let h2 = h.clone();
        let out = rt
            .run(async move {
                let never: Pin<Box<dyn Future<Output = ()>>> =
                    Box::pin(std::future::pending::<()>());
                timeout(&h2, 500.0, never).await
            })
            .unwrap();
        assert_eq!(out, None);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let rt = Runtime::new();
        let err = rt.run(std::future::pending::<()>()).unwrap_err();
        assert_eq!(err, Deadlock);
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn borrows_non_static_state() {
        let counter = Cell::new(0u32);
        let rt = Runtime::new();
        let h = rt.handle();
        for _ in 0..3 {
            let c = &counter;
            h.spawn(async move { c.set(c.get() + 1) });
        }
        let h2 = h.clone();
        let c = &counter;
        rt.run(async move {
            h2.sleep(1.0).await;
            c.get()
        })
        .unwrap();
        assert_eq!(counter.get(), 3);
    }
}
