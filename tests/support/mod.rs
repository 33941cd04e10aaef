//! Shared helpers for the serving suites.

use phom::prelude::*;
use std::sync::mpsc;

/// The longest query [`PoolHold::engage`] tries, and the length of the
/// directed path it registers to answer them.
const HOLD_PATH: usize = 32;

/// Holds one lane of a runtime's pool busy with work the test
/// controls: one real, uncached request of that lane whose completion
/// callback blocks its worker until the hold is released (or dropped).
/// While held, a tick group of the lane is in flight, so the
/// work-conserving batcher parks new requests of that lane on
/// `max_wait` (or `max_batch`, or shutdown) instead of flushing them at
/// once. Unlike the process-global fault plan, a hold touches only its
/// own runtime, so parallel tests in one binary cannot disturb it.
///
/// The holding requests run against a version of their own and are
/// admitted, ticked and completed like any other, so a test's
/// `admitted`/`completed`/`ticks` counts grow by [`requests`](Self::requests).
/// Dropping the hold releases it too, so a failing test that unwinds
/// cannot hang its runtime's shutdown.
pub struct PoolHold {
    /// The held callback blocks until this sender is dropped.
    _release: mpsc::Sender<()>,
    requests: u64,
}

impl PoolHold {
    /// Engages the hold and returns once the holding request's callback
    /// is blocking a worker. A callback can only be registered after
    /// admission, so the request may answer first; the callback then
    /// runs on this thread instead, and the hold retries with a new
    /// (uncached) query. Engage at most once per lane and runtime: the
    /// holding queries are cached afterwards and would finish at plan
    /// time.
    /// Fast-lane holds run exact probability queries; slow-lane holds
    /// run counting queries.
    pub fn engage(runtime: &Runtime, lane: Lane) -> PoolHold {
        let version = runtime.register(ProbGraph::new(
            Graph::directed_path(HOLD_PATH),
            vec![Rational::from_ratio(1, 2); HOLD_PATH],
        ));
        for len in 1..=HOLD_PATH {
            let request = Request::probability(Graph::directed_path(len));
            let request = match lane {
                Lane::Fast => request,
                Lane::Slow => request.counting(),
            };
            assert_eq!(request.lane(SolverOptions::default()), lane);
            let ticket = runtime
                .enqueue_to(version, request)
                .expect("holding request admitted");
            let (release, released) = mpsc::channel::<()>();
            let (held_tx, held) = mpsc::channel::<Option<String>>();
            ticket.on_complete(move |_| {
                let thread = std::thread::current().name().map(String::from);
                let on_worker = thread
                    .as_deref()
                    .is_some_and(|name| name.starts_with("phom-serve-worker"));
                let _ = held_tx.send(thread);
                if on_worker {
                    let _ = released.recv();
                }
            });
            match held.recv().expect("the callback reports its thread") {
                Some(name) if name.starts_with("phom-serve-worker") => {
                    return PoolHold {
                        _release: release,
                        requests: len as u64,
                    }
                }
                Some(name) if name.starts_with("phom-serve-batcher") => {
                    panic!("the holding request finished at plan time, not on a worker")
                }
                // Answered before the callback was registered: try again.
                _ => {}
            }
        }
        panic!("no holding request reached a worker in {HOLD_PATH} attempts")
    }

    /// Requests the hold admitted (and completes once released): one,
    /// plus one per attempt that answered before its callback was set.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Unblocks the held worker; its group finishes and, if requests
    /// are queued, the now-idle batcher flushes them.
    pub fn release(self) {
        drop(self);
    }
}
