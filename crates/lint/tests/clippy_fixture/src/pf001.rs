//! PF001's `.clone()` needle: a clone of a value that is never used again.
//! Clippy sees only the clones it can prove redundant: a clone whose
//! source lives on is not one, and neither, in clippy 1.95, is one inside
//! a loop body.

pub fn label(name: &str, out: &mut Vec<String>) {
    let owned = format!("<{name}>");
    out.push(owned.clone()); //~ clippy::redundant_clone
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_clone() {
        let mut out = Vec::new();
        let owned = String::from("a");
        out.push(owned.clone());
        assert_eq!(out, ["a"]);
    }
}
