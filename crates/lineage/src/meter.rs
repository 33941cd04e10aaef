//! [`WorkMeter`]: cooperative work/deadline checkpoints for evaluation
//! loops.
//!
//! The serving stack promises that no request wedges a worker: a
//! deadline'd or budget'd request must stop *inside* its evaluation
//! loop, not after it. The meter is the cheap cooperative primitive
//! behind that promise — a counter of abstract work units (circuit
//! gates, Monte-Carlo samples) with limits, plus a wall-clock deadline
//! that is only consulted every [`CLOCK_CHECK_INTERVAL`] units so the
//! hot loops pay an increment-and-compare, not a syscall, per gate.
//!
//! The engine's one slab loop takes its meter through a small `Meter`
//! trait with two impls: `WorkMeter` charges one gate per op, and a
//! zero-sized unmetered impl (error type `Infallible`) compiles away, so
//! metered and unmetered passes run the same arithmetic in the same
//! order.
//! [`FlatArena::eval_many_metered`](crate::flat::FlatArena::eval_many_metered)
//! is the metered circuit entry point; the Monte-Carlo sampler charges
//! [`WorkMeter::charge_sample`] per world. Either bails out with a
//! [`MeterStop`] the moment a limit trips. The stop reason is
//! deliberately lineage-local (no solver error types down here);
//! `phom_core` maps it onto `SolveError::DeadlineExceeded` /
//! `SolveError::BudgetExceeded` at the boundary.

use std::convert::Infallible;
use std::time::{Duration, Instant};

/// How many charged work units elapse between wall-clock reads. A
/// gate evaluation is a handful of nanoseconds; at 4096 gates per
/// clock check the metering overhead stays well under 1% while the
/// deadline is still honored within tens of microseconds.
pub const CLOCK_CHECK_INTERVAL: u64 = 4096;

/// Why a metered evaluation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeterStop {
    /// The caller-supplied absolute deadline passed.
    Deadline,
    /// The gate budget was exhausted.
    Gates { limit: u64 },
    /// The sample budget was exhausted.
    Samples { limit: u64 },
    /// The relative time budget was exhausted.
    Time { limit_millis: u64 },
}

/// A cooperative work meter: gate/sample counters with limits and a
/// periodically-checked wall-clock deadline. See the module docs.
#[derive(Clone, Debug)]
pub struct WorkMeter {
    /// Absolute point after which [`MeterStop::Deadline`] fires.
    deadline: Option<Instant>,
    /// Absolute point after which [`MeterStop::Time`] fires (a
    /// relative time *budget*, anchored when the meter was built).
    time_limit_at: Option<Instant>,
    /// The original relative budget, for error reporting.
    time_limit_millis: u64,
    gate_limit: Option<u64>,
    sample_limit: Option<u64>,
    gates: u64,
    samples: u64,
    /// Work units until the next wall-clock read; only meaningful
    /// when a deadline or time budget is set.
    countdown: u64,
}

impl WorkMeter {
    /// A meter with no limits: every check passes, no clock is read.
    pub fn unbounded() -> WorkMeter {
        WorkMeter {
            deadline: None,
            time_limit_at: None,
            time_limit_millis: 0,
            gate_limit: None,
            sample_limit: None,
            gates: 0,
            samples: 0,
            countdown: CLOCK_CHECK_INTERVAL,
        }
    }

    /// Returns whether any limit is set (i.e. whether metered
    /// evaluation can ever stop early).
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some()
            || self.time_limit_at.is_some()
            || self.gate_limit.is_some()
            || self.sample_limit.is_some()
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, at: Instant) -> WorkMeter {
        self.deadline = Some(match self.deadline {
            Some(prev) => prev.min(at),
            None => at,
        });
        self
    }

    /// Sets a relative time budget, anchored now.
    pub fn with_time_budget(mut self, budget: Duration) -> WorkMeter {
        self.time_limit_at = Some(Instant::now() + budget);
        self.time_limit_millis = budget.as_millis() as u64;
        self
    }

    /// Sets a gate budget (total gates charged across the request).
    pub fn with_gate_budget(mut self, gates: u64) -> WorkMeter {
        self.gate_limit = Some(gates);
        self
    }

    /// Sets a sample budget (total Monte-Carlo samples).
    pub fn with_sample_budget(mut self, samples: u64) -> WorkMeter {
        self.sample_limit = Some(samples);
        self
    }

    /// Gates charged so far.
    pub fn gates_used(&self) -> u64 {
        self.gates
    }

    /// Samples charged so far.
    pub fn samples_used(&self) -> u64 {
        self.samples
    }

    /// How many more samples may be charged before the sample budget
    /// trips (`u64::MAX` when unlimited).
    pub fn samples_remaining(&self) -> u64 {
        match self.sample_limit {
            Some(limit) => limit.saturating_sub(self.samples),
            None => u64::MAX,
        }
    }

    /// Reads the wall clock *now* and reports a deadline/time stop if
    /// either has passed. Cheap-but-not-free; the charge methods call
    /// it every [`CLOCK_CHECK_INTERVAL`] units.
    pub fn check_now(&mut self) -> Result<(), MeterStop> {
        if self.deadline.is_none() && self.time_limit_at.is_none() {
            return Ok(());
        }
        let now = Instant::now();
        if let Some(at) = self.deadline {
            if now >= at {
                return Err(MeterStop::Deadline);
            }
        }
        if let Some(at) = self.time_limit_at {
            if now >= at {
                return Err(MeterStop::Time {
                    limit_millis: self.time_limit_millis,
                });
            }
        }
        self.countdown = CLOCK_CHECK_INTERVAL;
        Ok(())
    }

    #[inline]
    fn charge_clock(&mut self, n: u64) -> Result<(), MeterStop> {
        if self.deadline.is_none() && self.time_limit_at.is_none() {
            return Ok(());
        }
        if self.countdown > n {
            self.countdown -= n;
            return Ok(());
        }
        self.check_now()
    }

    /// Charges `n` gate evaluations. Errs when the gate budget is
    /// exhausted or (every [`CLOCK_CHECK_INTERVAL`] units) when the
    /// deadline / time budget has passed.
    #[inline]
    pub fn charge_gates(&mut self, n: u64) -> Result<(), MeterStop> {
        self.gates += n;
        if let Some(limit) = self.gate_limit {
            if self.gates > limit {
                return Err(MeterStop::Gates { limit });
            }
        }
        self.charge_clock(n)
    }

    /// Charges one Monte-Carlo sample. Errs when the sample budget is
    /// exhausted or (periodically) when the deadline / time budget has
    /// passed.
    #[inline]
    pub fn charge_sample(&mut self) -> Result<(), MeterStop> {
        self.samples += 1;
        if let Some(limit) = self.sample_limit {
            if self.samples > limit {
                return Err(MeterStop::Samples { limit });
            }
        }
        self.charge_clock(1)
    }
}

/// What the slab loop charges: a checkpoint before the first op, then
/// one charge per op. [`WorkMeter`] charges one gate per op; the
/// zero-sized [`Unmetered`] never stops and compiles away.
pub(crate) trait Meter {
    /// Why the loop stopped early.
    type Stop;
    /// The checkpoint before the first op.
    fn begin(&mut self) -> Result<(), Self::Stop>;
    /// Charges one op.
    fn charge_op(&mut self) -> Result<(), Self::Stop>;
}

impl Meter for WorkMeter {
    type Stop = MeterStop;

    fn begin(&mut self) -> Result<(), MeterStop> {
        self.check_now()
    }

    #[inline]
    fn charge_op(&mut self) -> Result<(), MeterStop> {
        self.charge_gates(1)
    }
}

/// The meter of an unmetered pass: it cannot stop, so its callers
/// destructure `Ok` without an `unwrap`.
pub(crate) struct Unmetered;

impl Meter for Unmetered {
    type Stop = Infallible;

    #[inline(always)]
    fn begin(&mut self) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline(always)]
    fn charge_op(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let mut m = WorkMeter::unbounded();
        assert!(!m.is_bounded());
        for _ in 0..3 * CLOCK_CHECK_INTERVAL {
            m.charge_gates(1).unwrap();
        }
        m.charge_sample().unwrap();
        m.check_now().unwrap();
        assert_eq!(m.gates_used(), 3 * CLOCK_CHECK_INTERVAL);
        assert_eq!(m.samples_used(), 1);
        assert_eq!(m.samples_remaining(), u64::MAX);
    }

    #[test]
    fn gate_budget_trips_exactly_past_the_limit() {
        let mut m = WorkMeter::unbounded().with_gate_budget(10);
        assert!(m.is_bounded());
        for _ in 0..10 {
            m.charge_gates(1).unwrap();
        }
        assert_eq!(m.charge_gates(1), Err(MeterStop::Gates { limit: 10 }));
    }

    #[test]
    fn sample_budget_trips_and_reports_remaining() {
        let mut m = WorkMeter::unbounded().with_sample_budget(3);
        assert_eq!(m.samples_remaining(), 3);
        m.charge_sample().unwrap();
        m.charge_sample().unwrap();
        assert_eq!(m.samples_remaining(), 1);
        m.charge_sample().unwrap();
        assert_eq!(m.charge_sample(), Err(MeterStop::Samples { limit: 3 }));
    }

    #[test]
    fn expired_deadline_trips_on_check_now() {
        let mut m = WorkMeter::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(m.check_now(), Err(MeterStop::Deadline));
    }

    #[test]
    fn expired_deadline_trips_within_one_clock_interval() {
        let mut m = WorkMeter::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let mut charged = 0u64;
        loop {
            charged += 1;
            if m.charge_gates(1).is_err() {
                break;
            }
            assert!(
                charged <= CLOCK_CHECK_INTERVAL + 1,
                "deadline never tripped"
            );
        }
    }

    #[test]
    fn time_budget_trips_with_its_own_reason() {
        let mut m = WorkMeter::unbounded().with_time_budget(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(m.check_now(), Err(MeterStop::Time { limit_millis: 0 }));
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let mut m =
            WorkMeter::unbounded().with_deadline(Instant::now() + Duration::from_secs(3600));
        for _ in 0..2 * CLOCK_CHECK_INTERVAL {
            m.charge_gates(1).unwrap();
        }
        m.check_now().unwrap();
    }

    #[test]
    fn tighter_of_two_deadlines_wins() {
        let near = Instant::now() - Duration::from_millis(1);
        let far = Instant::now() + Duration::from_secs(3600);
        let mut m = WorkMeter::unbounded()
            .with_deadline(far)
            .with_deadline(near);
        assert_eq!(m.check_now(), Err(MeterStop::Deadline));
        let mut m2 = WorkMeter::unbounded()
            .with_deadline(near)
            .with_deadline(far);
        assert_eq!(m2.check_now(), Err(MeterStop::Deadline));
    }
}
