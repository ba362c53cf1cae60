//! Golden tests for the in-tree RNG: the exact output streams of
//! [`mscope_sim::SimRng`] for fixed seeds.
//!
//! The simulator's determinism contract — same seed ⇒ identical run ⇒
//! identical logs and diagnosis — reduces to these sequences. Any change
//! to the generator (seeding, the xoshiro256++ step, a sampler's draw
//! order) shifts every seeded experiment in the repo, so it must show up
//! here as a deliberate diff, not as silent drift.

use mscope_sim::{LogNormal, SimRng, WeightedIndex};

/// First raw draws of the generator for two fixed seeds.
#[test]
fn raw_stream_is_pinned() {
    let mut r = SimRng::seed_from(0);
    let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
    assert_eq!(first, GOLDEN_SEED0);

    let mut r = SimRng::seed_from(0xDEAD_BEEF);
    let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
    assert_eq!(first, GOLDEN_SEED_DEADBEEF);
}

/// Same seed ⇒ identical sequence; different seed ⇒ different sequence.
#[test]
fn determinism_contract() {
    let draw = |seed: u64| -> Vec<u64> {
        let mut r = SimRng::seed_from(seed);
        (0..64).map(|_| r.next_u64()).collect()
    };
    assert_eq!(draw(42), draw(42));
    assert_ne!(draw(42), draw(43));
}

/// Forked streams are pinned too: forking must stay decorrelated from the
/// parent *and* reproducible.
#[test]
fn fork_stream_is_pinned() {
    let mut parent = SimRng::seed_from(7);
    let mut child = parent.fork(0x6D6F_6E69);
    let child_draws: Vec<u64> = (0..4).map(|_| child.next_u64()).collect();
    assert_eq!(child_draws, GOLDEN_FORK);
    // The fork consumed exactly one parent draw; the parent continues its
    // own stream deterministically.
    let mut fresh = SimRng::seed_from(7);
    fresh.next_u64();
    assert_eq!(parent.next_u64(), fresh.next_u64());
}

/// Sampler outputs for a fixed seed, to f64-bit precision. These cover
/// every distribution the simulator draws from.
#[test]
fn sampler_outputs_are_pinned() {
    let mut r = SimRng::seed_from(0x5CC0_9E02);
    let got = [
        r.uniform01(),
        r.uniform(10.0, 20.0),
        r.uniform_u64(0, 999) as f64,
        f64::from(u8::from(r.chance(0.5))),
        r.exponential(4.0),
        r.standard_normal(),
        r.normal(100.0, 15.0),
        r.lognormal_mean_cv(50.0, 0.6),
        r.bounded_pareto(1.0, 100.0, 1.5),
        r.zipf(64, 0.99) as f64,
        r.weighted_index(&[0.1, 0.2, 0.3, 0.4]) as f64,
    ];
    for (i, (g, want)) in got.iter().zip(GOLDEN_SAMPLERS).enumerate() {
        assert!(
            g.to_bits() == want.to_bits(),
            "sampler {i}: got {g:?} ({:#018x}), pinned {want:?} ({:#018x})",
            g.to_bits(),
            want.to_bits()
        );
    }
}

/// The prepared samplers the engine draws from in its hot loop against
/// the ad-hoc calls whose outputs are pinned above: 10 000 interleaved
/// draws each from twin generators must agree to the bit and leave both
/// generators in the same state (same number of raw draws consumed).
#[test]
fn prepared_samplers_draw_what_the_ad_hoc_calls_draw() {
    // The RUBBoS mix has zero-weight entries (browse-only) and a long
    // tail; shapes cover a zero CV, which must consume no randomness.
    let weights = [12.0, 0.0, 7.5, 0.25, 30.0, 0.0, 1e-3, 3.0];
    let shapes = [(850.0, 0.35), (1.0, 2.5), (40_000.0, 0.0), (3.0, 1e-9)];
    let index = WeightedIndex::new(weights.to_vec());
    let demands = shapes.map(|(mean, cv)| LogNormal::from_mean_cv(mean, cv));

    let mut ad_hoc = SimRng::seed_from(0x5CC0_9E02);
    let mut prepared = ad_hoc.clone();
    for i in 0..10_000 {
        assert_eq!(ad_hoc.weighted_index(&weights), index.sample(&mut prepared));
        let (mean, cv) = shapes[i % shapes.len()];
        let want = ad_hoc.lognormal_mean_cv(mean, cv);
        let got = demands[i % shapes.len()].sample(&mut prepared);
        assert_eq!(got.to_bits(), want.to_bits(), "draw {i}: {got} vs {want}");
    }
    assert_eq!(ad_hoc.next_u64(), prepared.next_u64());
}

/// uniform01 must stay in [0, 1) and use the full 53-bit mantissa budget.
#[test]
fn uniform01_range() {
    let mut r = SimRng::seed_from(1);
    for _ in 0..10_000 {
        let v = r.uniform01();
        assert!((0.0..1.0).contains(&v), "uniform01 out of range: {v}");
    }
}

const GOLDEN_SEED0: [u64; 8] = [
    0x53175d61490b23df,
    0x61da6f3dc380d507,
    0x5c0fdf91ec9a7bfc,
    0x02eebf8c3bbe5e1a,
    0x7eca04ebaf4a5eea,
    0x0543c37757f08d9a,
    0xdb7490c75ab5026e,
    0xd87343e6464bc959,
];

const GOLDEN_SEED_DEADBEEF: [u64; 8] = [
    0x0c520eb8fea98ede,
    0x2b74a6338b80e0e2,
    0xbe238770c3795322,
    0x5f235f98a244ea97,
    0xe004f0cc1514d858,
    0x436a209963ff9223,
    0x8302e81b9685b6d4,
    0xa7eec00b77ec3019,
];

const GOLDEN_FORK: [u64; 4] = [
    0xb2aab96c1ac118b3,
    0x9dc025aa055d0ae3,
    0xbf73043f407741bf,
    0xb1074ec7a10ef190,
];

const GOLDEN_SAMPLERS: [f64; 11] = [
    f64::from_bits(0x3fe9168ddc6a784c), // uniform01            0.78400319147091
    f64::from_bits(0x4032e332fc723edf), // uniform(10, 20)      18.887496736423483
    f64::from_bits(0x408c800000000000), // uniform_u64(0, 999)  912
    f64::from_bits(0x3ff0000000000000), // chance(0.5)          true
    f64::from_bits(0x4035e3017e514e36), // exponential(4)       21.88674153790472
    f64::from_bits(0xbfe42df1c067e357), // standard_normal      -0.6306084402013806
    f64::from_bits(0x4052e7482de33094), // normal(100, 15)      75.61378047167301
    f64::from_bits(0x4061958e30a5a410), // lognormal(50, 0.6)   140.67360718108876
    f64::from_bits(0x3ff53fd1f60db482), // bounded_pareto       1.328081093927978
    f64::from_bits(0x0000000000000000), // zipf(64, 0.99)       rank 0
    f64::from_bits(0x0000000000000000), // weighted_index       bucket 0
];
