//! An in-memory log file namespace.
//!
//! Experiments run hermetically: every monitor writes its "log file" into a
//! [`LogStore`] keyed by path. The store can be dumped to a real directory
//! for inspection, and the transformer reads from it exactly as it would
//! read files on disk.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// In-memory path → text-content map with append semantics.
///
/// # Examples
///
/// ```
/// use mscope_monitors::LogStore;
///
/// let mut store = LogStore::new();
/// store.append("logs/apache0/access.log", "GET / 200\n");
/// store.append("logs/apache0/access.log", "GET /x 404\n");
/// assert_eq!(store.read("logs/apache0/access.log").unwrap().lines().count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogStore {
    files: BTreeMap<String, String>,
}

impl LogStore {
    /// Creates an empty store.
    pub fn new() -> LogStore {
        LogStore::default()
    }

    /// Appends text to a file, creating it if needed.
    pub fn append(&mut self, path: &str, text: &str) {
        self.write(path, |buf| buf.push_str(text));
    }

    /// Appends one line (adds the trailing newline).
    pub fn append_line(&mut self, path: &str, line: &str) {
        self.write(path, |buf| {
            buf.push_str(line);
            buf.push('\n');
        });
    }

    /// Runs `write` on a file's buffer, creating the file if needed. The
    /// path is looked up first, so only a new file allocates its key.
    fn write(&mut self, path: &str, write: impl FnOnce(&mut String)) {
        match self.files.get_mut(path) {
            Some(buf) => write(buf),
            None => {
                let mut buf = String::new();
                write(&mut buf);
                self.files.insert(path.to_string(), buf);
            }
        }
    }

    /// Reads a file's full contents.
    pub fn read(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(String::as_str)
    }

    /// Size of one file in bytes, or `None` if absent.
    pub fn size(&self, path: &str) -> Option<usize> {
        self.files.get(path).map(String::len)
    }

    /// All paths in sorted order.
    pub fn paths(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(String::len).sum()
    }

    /// Writes every file under `dir` on the real filesystem, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Any I/O error from directory creation or file writing.
    pub fn dump_to_dir(&self, dir: &Path) -> io::Result<()> {
        for (path, content) in &self.files {
            let full = dir.join(path);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(full, content)?;
        }
        Ok(())
    }

    /// Removes a file, returning its content if it existed.
    pub fn remove(&mut self, path: &str) -> Option<String> {
        self.files.remove(path)
    }

    /// Merges another store into this one (appending on path collisions).
    pub fn merge(&mut self, other: LogStore) {
        for (path, content) in other.files {
            self.files.entry(path).or_default().push_str(&content);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let mut s = LogStore::new();
        assert!(s.is_empty());
        s.append_line("a/b.log", "one");
        s.append_line("a/b.log", "two");
        s.append("a/c.log", "raw");
        assert_eq!(s.read("a/b.log"), Some("one\ntwo\n"));
        assert_eq!(s.read("a/c.log"), Some("raw"));
        assert_eq!(s.read("missing"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.paths(), vec!["a/b.log", "a/c.log"]);
        assert_eq!(s.size("a/c.log"), Some(3));
        assert_eq!(s.total_bytes(), 8 + 3);
    }

    #[test]
    fn merge_appends_on_collision() {
        let mut a = LogStore::new();
        a.append("x.log", "aa");
        let mut b = LogStore::new();
        b.append("x.log", "bb");
        b.append("y.log", "cc");
        a.merge(b);
        assert_eq!(a.read("x.log"), Some("aabb"));
        assert_eq!(a.read("y.log"), Some("cc"));
    }

    #[test]
    fn dump_to_real_dir() {
        let mut s = LogStore::new();
        s.append_line("nested/dir/file.log", "hello");
        let tmp = std::env::temp_dir().join(format!("mscope-logstore-test-{}", std::process::id()));
        s.dump_to_dir(&tmp).unwrap();
        let content = std::fs::read_to_string(tmp.join("nested/dir/file.log")).unwrap();
        assert_eq!(content, "hello\n");
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}

impl LogStore {
    /// Loads every regular file under `dir` (recursively) into a fresh
    /// store, with paths relative to `dir` — the inverse of
    /// [`LogStore::dump_to_dir`].
    ///
    /// # Errors
    ///
    /// Any I/O error; non-UTF-8 file contents are rejected, and so is an
    /// entry the directory listing places outside `dir`.
    pub fn load_from_dir(dir: &Path) -> io::Result<LogStore> {
        fn walk(base: &Path, dir: &Path, store: &mut LogStore) -> io::Result<()> {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    walk(base, &path, store)?;
                } else {
                    let rel = path
                        .strip_prefix(base)
                        .map_err(io::Error::other)?
                        .to_string_lossy()
                        .replace('\\', "/");
                    let content = std::fs::read_to_string(&path)?;
                    store.files.insert(rel, content);
                }
            }
            Ok(())
        }
        let mut store = LogStore::new();
        walk(dir, dir, &mut store)?;
        Ok(store)
    }
}

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    #[test]
    fn dump_then_load_roundtrips() {
        let mut s = LogStore::new();
        s.append_line("logs/a/x.log", "one");
        s.append("logs/b/deep/y.csv", "1,2,3\n");
        let tmp = std::env::temp_dir().join(format!("mscope-ls-rt-{}", std::process::id()));
        s.dump_to_dir(&tmp).unwrap();
        let back = LogStore::load_from_dir(&tmp).unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
