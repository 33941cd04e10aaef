//! The caller's claim on an in-flight request: blocking [`Ticket::wait`],
//! non-blocking [`Ticket::try_get`], best-effort [`Ticket::cancel`]lation,
//! and a push-style [`Ticket::on_complete`] completion callback (the
//! seam the wire protocol's server-push completion is built on).

use phom_core::{Response, SolveError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The completion callback registered by [`Ticket::on_complete`].
type Callback = Box<dyn FnOnce(&Result<Response, SolveError>) + Send>;

/// A claim on the eventual answer to one request admitted by
/// [`Runtime::enqueue`](crate::Runtime::enqueue).
///
/// The runtime fulfills the ticket when its micro-batch tick completes;
/// admitted tickets are always fulfilled eventually — a graceful
/// [`shutdown`](crate::Runtime::shutdown) drains them, a worker panic
/// resolves them with [`SolveError::Internal`], and a
/// [`cancel`](Ticket::cancel) resolves them with
/// [`SolveError::Cancelled`]. Dropping a ticket is safe: the answer is
/// simply discarded when the tick completes.
pub struct Ticket {
    state: Arc<TicketState>,
}

/// The slot a resolution lands in, plus the at-most-one completion
/// callback. Both live under ONE mutex: every resolution path (tick
/// completion, cancel, flush shed, deadline shed, batcher teardown)
/// first [claims](TicketState::claim) the slot, and only the winning
/// claim [publishes](TicketState::publish) its result and takes the
/// callback — so the callback observes exactly one resolution no matter
/// how those paths race.
struct Slot {
    result: Option<Result<Response, SolveError>>,
    /// Set by the winning [`TicketState::claim`]; `result` follows when
    /// that resolution publishes.
    claimed: bool,
    callback: Option<Callback>,
}

pub(crate) struct TicketState {
    slot: Mutex<Slot>,
    ready: Condvar,
    cancelled: AtomicBool,
}

impl TicketState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(Slot {
                result: None,
                claimed: false,
                callback: None,
            }),
            ready: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves the ticket in one step: [`claim`](Self::claim), then
    /// [`publish`](Self::publish). The first resolution wins; later ones
    /// (a cancelled request whose tick still completed) are dropped.
    /// Returns whether this resolution landed.
    pub(crate) fn fulfill(&self, result: Result<Response, SolveError>) -> bool {
        let won = self.claim();
        if won {
            self.publish(result);
        }
        won
    }

    /// The first step of a two-step resolution: reserves the slot for
    /// the caller's result without making it visible. Returns whether
    /// this claim won; every later claim (and so every later
    /// [`fulfill`](Self::fulfill) or [`Ticket::cancel`]) loses. The
    /// runtime claims a tick's tickets, records the tick in its books,
    /// histograms and spans, and only then publishes — so whoever the
    /// answer wakes already sees its request counted.
    pub(crate) fn claim(&self) -> bool {
        !std::mem::replace(&mut self.lock().claimed, true)
    }

    /// The second step: writes the result of a winning
    /// [`claim`](Self::claim), wakes every waiter, and fires the
    /// [`on_complete`](Ticket::on_complete) callback, which it takes out
    /// of the slot under the same lock that writes the result. The
    /// callback runs *after* the lock is released (it may take other
    /// locks; it must never re-enter this ticket's resolution path).
    pub(crate) fn publish(&self, result: Result<Response, SolveError>) {
        let mut slot = self.lock();
        debug_assert!(
            slot.claimed && slot.result.is_none(),
            "publish once, after a won claim"
        );
        let callback = slot.callback.take();
        slot.result = Some(result);
        // Snapshot for the callback while the slot stays immutable
        // (single-assignment: nothing rewrites `result` after this).
        let snapshot = callback
            .is_some()
            .then(|| slot.result.clone().expect("just written"));
        drop(slot);
        self.ready.notify_all();
        if let Some(cb) = callback {
            cb(&snapshot.expect("snapshot taken with callback"));
        }
    }

    /// Whether [`Ticket::cancel`] ran — the runtime skips execution of
    /// cancelled entries when it builds a tick.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

impl Ticket {
    pub(crate) fn new(state: Arc<TicketState>) -> Self {
        Ticket { state }
    }

    /// Blocks until the answer is available and returns it. Repeated
    /// calls return the same answer.
    pub fn wait(&self) -> Result<Response, SolveError> {
        let mut slot = self.state.lock();
        loop {
            if let Some(result) = slot.result.as_ref() {
                return result.clone();
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// As [`wait`](Ticket::wait), giving up after `timeout` (`None` when
    /// the answer did not arrive in time).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, SolveError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.state.lock();
        loop {
            if let Some(result) = slot.result.as_ref() {
                return Some(result.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .state
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }

    /// Non-blocking probe: the answer if it is already available.
    pub fn try_get(&self) -> Option<Result<Response, SolveError>> {
        self.state.lock().result.clone()
    }

    /// True once the ticket has been resolved (answer, error, or
    /// cancellation).
    pub fn is_done(&self) -> bool {
        self.state.lock().result.is_some()
    }

    /// Registers a completion callback, fired **exactly once** with the
    /// resolution — whichever of tick completion, [`cancel`](Self::cancel), a queue
    /// shed, or runtime teardown lands it. If the ticket is already
    /// resolved, the callback fires immediately on the calling thread;
    /// otherwise it fires on the resolving thread, so it must be cheap
    /// and non-blocking (the wire server's push path hands the result to
    /// a channel and returns). At most one callback per ticket: a second
    /// registration replaces an unfired first.
    ///
    /// This is the server-push seam: the network front end registers a
    /// wakeup here instead of parking a thread per outstanding ticket.
    pub fn on_complete(&self, f: impl FnOnce(&Result<Response, SolveError>) + Send + 'static) {
        let mut slot = self.state.lock();
        if let Some(result) = slot.result.as_ref() {
            let snapshot = result.clone();
            drop(slot);
            f(&snapshot);
            return;
        }
        slot.callback = Some(Box::new(f));
    }

    /// Cancellation: if the answer has not landed yet, the ticket
    /// resolves to `Err(SolveError::Cancelled)` immediately — even when
    /// its tick is already executing (the computation may still run to
    /// completion, but its answer is discarded and not counted as
    /// completed). A request whose tick has not started is skipped
    /// outright. Once the answer has landed — or its tick has claimed it
    /// and is about to publish it — `cancel` is a no-op.
    /// Returns `true` when the cancellation resolved the ticket.
    pub fn cancel(&self) -> bool {
        self.state.cancelled.store(true, Ordering::SeqCst);
        // Route through `fulfill` so a registered completion callback
        // sees the cancellation through the same exactly-once gate as
        // every other resolution.
        self.state.fulfill(Err(SolveError::Cancelled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phom_core::Response;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    fn answer() -> Result<Response, SolveError> {
        Err(SolveError::Cancelled) // any cloneable stand-in result
    }

    /// The timeout-vs-fulfill race: a `wait_timeout` that gives up does
    /// NOT consume or lose the eventual answer — the slot is written by
    /// `fulfill` regardless, later waits return it, and the fulfillment
    /// still reports "landed" exactly once (no double resolution).
    #[test]
    fn timed_out_wait_never_loses_the_answer() {
        let state = TicketState::new();
        let ticket = Ticket::new(Arc::clone(&state));
        // Give up before any answer exists.
        let t0 = Instant::now();
        assert!(ticket.wait_timeout(Duration::from_millis(10)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(!ticket.is_done());
        // The runtime fulfills after the caller already timed out.
        assert!(state.fulfill(answer()), "first resolution lands");
        // The answer is still there for every later wait flavor.
        assert!(ticket.try_get().is_some());
        assert!(ticket.wait_timeout(Duration::ZERO).is_some());
        assert_eq!(ticket.wait().unwrap_err(), SolveError::Cancelled);
        // And the slot is single-assignment: nothing double-resolves.
        assert!(!state.fulfill(answer()), "second resolution is dropped");
        assert!(!ticket.cancel(), "cancel after the answer is a no-op");
        assert_eq!(ticket.wait().unwrap_err(), SolveError::Cancelled);
    }

    /// A `wait_timeout` racing a concurrent fulfill either returns the
    /// answer or times out and finds it on the next wait — it never
    /// observes a half-written state and never blocks past its
    /// deadline.
    #[test]
    fn wait_timeout_races_concurrent_fulfill() {
        for _ in 0..50 {
            let state = TicketState::new();
            let ticket = Ticket::new(Arc::clone(&state));
            let fulfiller = {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    state.fulfill(answer());
                })
            };
            let got = ticket.wait_timeout(Duration::from_micros(50));
            fulfiller.join().unwrap();
            match got {
                Some(result) => assert!(result.is_err()),
                // Timed out first: the answer must be waiting now.
                None => assert!(ticket.wait().is_err()),
            }
        }
    }

    /// The push seam's contract: no matter how cancel and fulfill race,
    /// a registered callback fires exactly once, with the resolution
    /// that actually landed in the slot.
    #[test]
    fn on_complete_fires_exactly_once_under_cancel_race() {
        for round in 0..200 {
            let state = TicketState::new();
            let ticket = Arc::new(Ticket::new(Arc::clone(&state)));
            let fires = Arc::new(AtomicU64::new(0));
            {
                let fires = Arc::clone(&fires);
                ticket.on_complete(move |_| {
                    fires.fetch_add(1, Ordering::SeqCst);
                });
            }
            std::thread::scope(|scope| {
                let canceller = {
                    let ticket = Arc::clone(&ticket);
                    scope.spawn(move || {
                        if round % 2 == 0 {
                            std::thread::yield_now();
                        }
                        ticket.cancel()
                    })
                };
                let fulfilled = state.fulfill(answer());
                let cancelled = canceller.join().expect("canceller");
                // Exactly one resolution won…
                assert!(fulfilled ^ cancelled, "round {round}");
            });
            // …and the callback fired for it, exactly once.
            assert_eq!(fires.load(Ordering::SeqCst), 1, "round {round}");
            assert!(ticket.is_done());
        }
    }

    /// A claimed ticket is not yet done, a cancel after the claim loses
    /// cleanly, and the publish that follows fires the callback once
    /// with the claimed result.
    #[test]
    fn cancel_after_a_claim_loses_and_publish_fires_once() {
        let state = TicketState::new();
        let ticket = Ticket::new(Arc::clone(&state));
        let fires = Arc::new(AtomicU64::new(0));
        let fires2 = Arc::clone(&fires);
        ticket.on_complete(move |r| {
            assert_eq!(r.as_ref().unwrap_err(), &SolveError::DeadlineExceeded);
            fires2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(state.claim());
        assert!(!ticket.is_done(), "a claim publishes nothing");
        assert!(!ticket.cancel(), "the claim already won");
        assert!(!state.claim());
        assert_eq!(fires.load(Ordering::SeqCst), 0);
        state.publish(Err(SolveError::DeadlineExceeded));
        assert_eq!(fires.load(Ordering::SeqCst), 1);
        assert_eq!(ticket.wait().unwrap_err(), SolveError::DeadlineExceeded);
    }

    /// Registering on an already-resolved ticket fires immediately with
    /// the landed answer (the server's submit-then-register window).
    #[test]
    fn on_complete_after_resolution_fires_immediately() {
        let state = TicketState::new();
        let ticket = Ticket::new(Arc::clone(&state));
        assert!(state.fulfill(answer()));
        let fires = Arc::new(AtomicU64::new(0));
        let fires2 = Arc::clone(&fires);
        ticket.on_complete(move |r| {
            assert!(r.is_err());
            fires2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fires.load(Ordering::SeqCst), 1);
    }
}
