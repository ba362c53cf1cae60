//! `no-wallclock`: wall-clock reads. Fires only under the wall-clock-free
//! crates' config; the other identity-gated crates may read the clock.

use std::time::Instant as Clock;
use std::time::{Instant, SystemTime};

pub fn t() -> Instant {
    Instant::now() //~ clippy::disallowed_methods
}

pub fn stamp() -> SystemTime {
    SystemTime::now() //~ clippy::disallowed_methods
}

/// The alias a text needle cannot see through.
pub fn aliased() -> Clock {
    Clock::now() //~ clippy::disallowed_methods
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_time() {
        assert!(std::time::Instant::now().elapsed().as_secs() < 60);
    }
}
