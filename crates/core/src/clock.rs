//! The runtime's one source of time. Every time read and timed wait in the
//! crate goes through the [`Clock`] a [`Runtime`](crate::runtime::Runtime)
//! owns. A clock is real, or manual: a fixed instant plus an offset that
//! only [`Clock::advance`] moves, so a test decides when a delayed batch
//! flushes or a fault window expires. Stamps are [`Instant`]s either way.

// The one module that reads the system clock and blocks on it.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a waiter on a manual clock looks at it again.
const MANUAL_POLL: Duration = Duration::from_millis(1);

/// A real clock (the default), or a manual clock's base instant and the
/// nanoseconds advanced past it, shared by its clones.
#[derive(Debug, Clone, Default)]
pub struct Clock(Option<Arc<(Instant, AtomicU64)>>);

impl Clock {
    /// The system's monotonic clock.
    pub fn real() -> Clock {
        Clock(None)
    }

    /// A clock that stands still until [`Self::advance`] moves it.
    pub fn manual() -> Clock {
        Clock(Some(Arc::new((Instant::now(), AtomicU64::new(0)))))
    }

    /// The current instant.
    pub fn now(&self) -> Instant {
        match &self.0 {
            None => Instant::now(),
            Some(m) => m.0 + Duration::from_nanos(m.1.load(Ordering::Acquire)),
        }
    }

    /// Time passed since `earlier`.
    pub fn since(&self, earlier: Instant) -> Duration {
        self.now().saturating_duration_since(earlier)
    }

    /// Moves a manual clock forward by `d`. Panics on the real clock.
    pub fn advance(&self, d: Duration) {
        let m = self.0.as_ref().expect("a manual clock");
        m.1.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }

    /// Parks the calling thread until the clock reads `deadline` (`true`)
    /// or `stop` is raised (`false`); the stopping side raises `stop`, then
    /// unparks the thread. On a manual clock the waiter looks again every
    /// millisecond of real time, so it returns at most that long after an
    /// [`Self::advance`] past the deadline.
    pub fn wait_until(&self, deadline: Instant, stop: &AtomicBool) -> bool {
        while !stop.load(Ordering::Acquire) {
            let now = self.now();
            if now >= deadline {
                return true;
            }
            std::thread::park_timeout(match self.0 {
                None => deadline - now,
                Some(_) => MANUAL_POLL,
            });
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_advanced() {
        let clock = Clock::manual();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.since(t0), Duration::from_millis(3));
        assert_eq!(clock.clone().now(), t0 + Duration::from_millis(3));
    }

    /// A waiter on `clock` until `deadline` that `stop` stops: whether it
    /// reached the deadline.
    fn stopped_wait(clock: &Clock, deadline: Instant) -> bool {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| clock.wait_until(deadline, &stop));
            stop.store(true, Ordering::Release);
            waiter.thread().unpark();
            waiter.join().unwrap()
        })
    }

    #[test]
    fn a_wait_returns_on_advance_or_stop() {
        let clock = Clock::manual();
        let deadline = clock.now() + Duration::from_secs(60);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| clock.wait_until(deadline, &AtomicBool::new(false)));
            clock.advance(Duration::from_secs(30));
            clock.advance(Duration::from_secs(30));
            assert!(waiter.join().unwrap(), "deadline reached");
        });
        assert!(!stopped_wait(&clock, deadline + Duration::from_secs(1)));
        let real = Clock::real();
        assert!(!stopped_wait(&real, real.now() + Duration::from_secs(3600)));
        assert!(real.wait_until(real.now(), &AtomicBool::new(false)));
    }
}
