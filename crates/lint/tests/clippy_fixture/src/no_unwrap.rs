//! `no-unwrap`: `unwrap`, `expect` and `panic!` in non-test code.

pub fn a(x: Option<u8>) -> u8 {
    x.unwrap() //~ clippy::unwrap_used
}

pub fn b(x: Result<u8, String>) -> u8 {
    x.expect("msg") //~ clippy::expect_used
}

pub fn c() {
    panic!("boom"); //~ clippy::panic
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let (x, y): (Option<u8>, Result<u8, ()>) = (u8::try_from(1).ok(), Ok(1));
        assert_eq!(x.unwrap(), y.expect("one"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn tests_may_panic() {
        panic!("boom");
    }
}
