//! Every line marked `//~ <lint>` must draw that clippy lint, and no
//! other line may draw a clippy lint. The crate-root attributes are the
//! ones the identity-gated and hot-path crates carry.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod dt003;
pub mod dt004;
pub mod dt005;
pub mod dt008;
pub mod no_unwrap;
pub mod no_wallclock;

/// Stands in for a worker's job.
pub fn work() {}
