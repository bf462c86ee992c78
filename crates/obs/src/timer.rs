//! The workspace's single home for wall-clock reads.
//!
//! Determinism rule D2 (DESIGN.md §10) forbids `Instant::now` and
//! `SystemTime::now`/`elapsed` everywhere except [`Stopwatch::start`]:
//! `clippy.toml` lists them under `disallowed-methods`, and the one
//! sanctioned read carries a reasoned `#[expect]`. Clock reads are
//! inherently nondeterministic, so confining them here keeps every other
//! path auditable as order-independent. Code that needs elapsed time
//! takes a [`Stopwatch`]; nothing else touches the OS clock.
//!
//! `std::time::Duration` is a pure value type (no clock read) and may be
//! used anywhere.

use std::time::{Duration, Instant};

/// A started wall-clock timer. The only way the workspace reads time.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch (the one sanctioned clock read).
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: the workspace's one sanctioned clock read"
    )]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Wall-clock time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in whole nanoseconds (saturating at `u64::MAX`).
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
