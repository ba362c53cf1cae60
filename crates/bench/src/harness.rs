//! The one timing rule of the bench binaries, and the command line and
//! summary they share.
//!
//! A bench compares legs that do the same work two ways. [`interleave`]
//! times them in rounds, each round running every leg once in a fixed
//! order, so a stall of the host lands on one sample of each leg, not on
//! all of one leg's. A leg's time is its median over the rounds, reported
//! with the round count; a ratio between two legs is the median over the
//! rounds of the two legs' times within one round, which a few slow
//! rounds do not move.

use mscope_serdes::Json;
use std::time::Instant;

/// A bench binary's command line, `[--smoke] [--out PATH]`, and where its
/// summary goes.
pub struct Bench {
    name: &'static str,
    /// Smoke mode: the small inputs CI runs.
    pub smoke: bool,
    out: String,
}

impl Bench {
    /// Parses the process arguments for the bench `name`. Without `--out`
    /// the summary goes to `record` (e.g. `BENCH_query.json`) at the
    /// workspace root: cargo runs bench binaries with the package directory
    /// as the working directory. Other arguments (cargo passes `--bench`)
    /// are ignored.
    pub fn from_args(name: &'static str, record: &str) -> Bench {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| format!("{}/../../{record}", env!("CARGO_MANIFEST_DIR")));
        let smoke = args.iter().any(|a| a == "--smoke");
        eprintln!("## {name} ({})", if smoke { "smoke" } else { "full" });
        Bench { name, smoke, out }
    }

    /// Writes the summary, pretty-printed: `bench`, `mode` and the round
    /// count `samples`, then `fields` in order.
    pub fn write(&self, samples: usize, fields: Vec<(&str, Json)>) {
        let head = [
            ("bench", Json::Str(self.name.into())),
            (
                "mode",
                Json::Str(if self.smoke { "smoke" } else { "full" }.into()),
            ),
            ("samples", Json::Int(samples as i128)),
        ];
        let doc = Json::obj(head.into_iter().chain(fields));
        std::fs::write(&self.out, mscope_serdes::to_string_pretty(&doc))
            .expect("write bench output");
        eprintln!("  -> {}", self.out);
    }
}

/// Every leg's seconds in every round of one [`interleave`] call.
pub struct Rounds {
    /// `secs[round][leg]`.
    secs: Vec<Vec<f64>>,
    /// Each leg's return value in the last round.
    pub outputs: Vec<usize>,
}

/// Times `legs` legs in `rounds` rounds; each round calls `leg(0)`,
/// `leg(1)`, … in that order. A leg returns the size of what it produced,
/// which callers compare across legs.
pub fn interleave(rounds: usize, legs: usize, mut leg: impl FnMut(usize) -> usize) -> Rounds {
    let mut outputs = vec![0; legs];
    let secs = (0..rounds)
        .map(|_| {
            (0..legs)
                .map(|i| {
                    let start = Instant::now();
                    outputs[i] = leg(i);
                    start.elapsed().as_secs_f64()
                })
                .collect()
        })
        .collect();
    Rounds { secs, outputs }
}

/// [`interleave`] over two legs, `a` then `b`.
pub fn pair(rounds: usize, mut a: impl FnMut() -> usize, mut b: impl FnMut() -> usize) -> Rounds {
    interleave(rounds, 2, |leg| if leg == 0 { a() } else { b() })
}

impl Rounds {
    /// The median seconds of leg `leg`.
    pub fn median(&self, leg: usize) -> f64 {
        median(self.secs.iter().map(|r| r[leg]).collect())
    }

    /// The median over rounds of leg `num`'s seconds over leg `den`'s in
    /// the same round: how many times faster `den` ran than `num`.
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        median(self.secs.iter().map(|r| r[num] / r[den]).collect())
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
