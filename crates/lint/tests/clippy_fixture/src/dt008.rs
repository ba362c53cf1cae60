//! DT008: worker-count reads outside the plan selectors.

pub fn emit_meta() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) //~ clippy::disallowed_methods
}
