//! DT003: threads outside the sanctioned pool.

use crate::work;

pub fn fan_out() {
    std::thread::spawn(work); //~ clippy::disallowed_methods
}

pub fn scoped() {
    std::thread::scope(|s| { //~ clippy::disallowed_methods
        s.spawn(work);
    });
}

pub fn built() -> std::io::Result<()> {
    std::thread::Builder::new().spawn(work)?; //~ clippy::disallowed_methods
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(crate::work).join().ok();
    }
}
