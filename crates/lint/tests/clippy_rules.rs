//! The rules clippy enforces for the workspace (DESIGN.md §7) still fail
//! their violating fixtures, and their scope has not drifted.
//!
//! `no-unwrap` is `#![deny(clippy::{unwrap_used, expect_used, panic})]`
//! in the hot-path crates' roots; DT001, PF002 and PF001's `.clone()`
//! needle are `#![deny(clippy::{iter_over_hash_type, needless_collect,
//! redundant_clone})]` in the identity-gated crates' roots;
//! `no-wallclock`, DT001's iterating methods, DT003, DT004, DT005, DT008
//! and PF005 are `disallowed-methods`/`disallowed-types` in
//! `crates/clippy.toml` and in the wall-clock-free crates' copies; test
//! code is exempt through `cfg_attr(test, allow(…))` in each crate root
//! and `allow-*-in-tests`. The fixture crate (`clippy_fixture/`, outside
//! the workspace) carries the same crate-root attributes and is run under
//! the real config files through `CLIPPY_CONF_DIR`, so neither side can
//! drift from the other. Every line of it marked `//~ <lint>` must draw
//! that lint and no other line may draw a clippy lint, so its
//! `#[cfg(test)]` modules prove the test exemption.

use mscope_serdes::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `(file, line, lint)` of one clippy finding, the file relative to the
/// fixture's manifest directory.
type Hit = (String, u64, String);

const NO_UNWRAP: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
const TEST_EXEMPT: &str = "#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, clippy::iter_over_hash_type, clippy::needless_collect, clippy::redundant_clone))]";
const NO_WRAP: &str = "#![deny(clippy::cast_possible_wrap, clippy::cast_sign_loss)]";
const MOVED_RULES: &str =
    "#![deny(clippy::iter_over_hash_type, clippy::needless_collect, clippy::redundant_clone)]";
const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/lint sits in crates/")
        .to_path_buf()
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy_fixture")
}

/// `text` without whitespace, so an attribute matches however rustfmt
/// wrapped it.
fn squash(text: &str) -> String {
    text.split_whitespace().collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `//~ <lint>` markers of the fixture's sources.
fn marked() -> BTreeSet<Hit> {
    let src = fixture_dir().join("src");
    let mut out = BTreeSet::new();
    for entry in std::fs::read_dir(&src).expect("fixture sources") {
        let path = entry.expect("fixture entry").path();
        let file = format!("src/{}", path.file_name().unwrap().to_string_lossy());
        for (line, text) in (1..).zip(read(&path).lines()) {
            if let Some((_, lint)) = text.split_once("//~ clippy::") {
                out.insert((file.clone(), line, format!("clippy::{}", lint.trim())));
            }
        }
    }
    out
}

/// The clippy findings on the fixture under the `clippy.toml` in `conf`,
/// from a fresh target directory: clippy does not fingerprint a config
/// file, so a cached check could replay findings of an older one.
fn clippy_hits(conf: &Path) -> BTreeSet<Hit> {
    let name = conf.file_name().unwrap().to_string_lossy().into_owned();
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("clippy-fixture-{name}"));
    std::fs::remove_dir_all(&target).ok();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--keep-going",
            "--all-targets",
        ])
        .args(["--message-format", "json"])
        .arg("--manifest-path")
        .arg(fixture_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .env("CLIPPY_CONF_DIR", conf)
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut hits = BTreeSet::new();
    for line in stdout.lines() {
        let Ok(msg) = mscope_serdes::from_str::<Json>(line) else {
            continue;
        };
        let Some(message) = msg.get("message") else {
            continue;
        };
        let code = message
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        if !code.starts_with("clippy::") {
            continue;
        }
        let spans = message.get("spans").and_then(Json::as_array);
        for span in spans.into_iter().flatten() {
            if span.get("is_primary").and_then(Json::as_bool) == Some(true) {
                let file = span
                    .get("file_name")
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                let line = span
                    .get("line_start")
                    .and_then(Json::as_u64)
                    .unwrap_or_default();
                hits.insert((file.to_string(), line, code.to_string()));
            }
        }
    }
    assert!(
        !hits.is_empty(),
        "clippy reported nothing on the fixture — did it run?\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    hits
}

#[test]
fn wall_clock_free_config_fails_every_fixture() {
    // `sim`, `transform` and `warehouse`: every moved rule, the
    // `Instant as Clock` alias included.
    let hits = clippy_hits(&crates_dir().join("sim"));
    assert_eq!(hits, marked());
    let alias = read(&fixture_dir().join("src/no_wallclock.rs"))
        .lines()
        .position(|l| l.contains("Clock::now()"))
        .expect("the alias fixture");
    let alias = (
        "src/no_wallclock.rs".into(),
        alias as u64 + 1,
        "clippy::disallowed_methods".into(),
    );
    assert!(
        hits.contains(&alias),
        "the `Instant as Clock` alias escaped"
    );
}

#[test]
fn identity_gated_config_fails_every_fixture_but_the_wall_clock() {
    // `analysis`, `core`, `monitors`, `ntier`, `serdes` read
    // crates/clippy.toml: the determinism rules without `no-wallclock`.
    let expected: BTreeSet<Hit> = marked()
        .into_iter()
        .filter(|(file, _, _)| file != "src/no_wallclock.rs")
        .collect();
    assert_eq!(clippy_hits(&crates_dir()), expected);
}

#[test]
fn configs_keep_their_scopes() {
    let crates = crates_dir();
    let shared = read(&crates.join("clippy.toml"));
    let wall_free = read(&crates.join("sim/clippy.toml"));
    for krate in ["transform", "warehouse"] {
        assert_eq!(
            read(&crates.join(krate).join("clippy.toml")),
            wall_free,
            "crates/{krate}/clippy.toml must equal crates/sim/clippy.toml"
        );
    }
    // Clippy reads only the first config it finds, so the wall-clock-free
    // copy repeats every entry of the shared one.
    for entry in shared.lines().filter(|l| l.contains("path = ")) {
        assert!(
            wall_free.lines().any(|l| l == entry),
            "crates/sim/clippy.toml lacks `{entry}`"
        );
    }
    for krate in ["bench", "lint"] {
        let own = read(&crates.join(krate).join("clippy.toml"));
        assert!(
            !own.contains("disallowed"),
            "crates/{krate} is not identity-gated"
        );
    }
}

#[test]
fn crate_roots_carry_the_fixture_attributes() {
    let fixture = read(&fixture_dir().join("src/lib.rs"));
    for attr in [NO_UNWRAP, TEST_EXEMPT, MOVED_RULES] {
        assert!(
            squash(&fixture).contains(&squash(attr)),
            "the fixture lacks `{attr}`"
        );
    }
    let with = |attr: &str| -> Vec<String> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(crates_dir()).expect("crates/") {
            let dir = entry.expect("crate dir").path();
            let root = dir.join("src/lib.rs");
            if root.is_file() && squash(&read(&root)).contains(&squash(attr)) {
                out.push(dir.file_name().unwrap().to_string_lossy().into_owned());
            }
        }
        out.sort();
        out
    };
    assert_eq!(
        with(NO_UNWRAP),
        ["analysis", "monitors", "ntier", "transform", "warehouse"]
    );
    assert_eq!(
        with(TEST_EXEMPT),
        [
            "analysis",
            "core",
            "monitors",
            "ntier",
            "serdes",
            "sim",
            "transform",
            "warehouse"
        ]
    );
    assert_eq!(with(MOVED_RULES), with(TEST_EXEMPT));
    assert_eq!(with(NO_WRAP), ["analysis", "core"]);
    // DT005's `static mut`: neither a read nor a write compiles without
    // `unsafe`.
    let gated = with(TEST_EXEMPT);
    let no_unsafe = with(FORBID_UNSAFE);
    assert!(
        gated.iter().all(|c| no_unsafe.contains(c)),
        "every identity-gated crate root forbids unsafe code"
    );
}
