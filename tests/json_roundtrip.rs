//! JSON round-trip tests for the in-tree serialization layer
//! (`mscope_serdes`), over the real types that cross process boundaries:
//! run records (`ntier::record`), experiment configs (`ntier::config`),
//! and warehouse values (`warehouse::value`).
//!
//! These pin the wire behaviour the rest of the repo relies on: exact
//! integer round-trips up to the full `u64` request-ID range, string
//! escaping, the NaN/infinity-to-`null` policy, and nested collections.

use milliscope::ntier::{
    Interaction, NodeId, RequestId, RequestRecord, SessionId, SystemConfig, TierId, TierSpan,
};
use milliscope::sim::prop::{forall, Gen};
use milliscope::sim::{prop_ensure, SimTime};
use mscope_db::Value;
use mscope_serdes::{from_str, to_string, to_string_pretty, Json};

fn span(tier: u32, ua: u64, ud: u64) -> TierSpan {
    TierSpan {
        node: NodeId {
            tier: TierId(tier as usize),
            replica: 0,
        },
        upstream_arrival: SimTime::from_micros(ua),
        upstream_departure: SimTime::from_micros(ud),
        downstream_sending: None,
        downstream_receiving: None,
    }
}

// ------------------------------------------------------------------
// ntier::record
// ------------------------------------------------------------------

#[test]
fn request_record_roundtrips() {
    let rec = RequestRecord {
        id: RequestId(u64::MAX), // full range must survive exactly
        session: SessionId(12345),
        interaction: Interaction { idx: 7 },
        client_send: SimTime::from_micros(1_000_000),
        client_recv: Some(SimTime::from_micros(1_250_000)),
        status: 200,
        spans: vec![
            TierSpan {
                downstream_sending: Some(SimTime::from_micros(1_010_000)),
                downstream_receiving: Some(SimTime::from_micros(1_200_000)),
                ..span(0, 1_000_500, 1_249_000)
            },
            span(1, 1_011_000, 1_199_000),
        ],
    };
    let json = to_string(&rec);
    let back: RequestRecord = from_str(&json).expect("record parses back");
    assert_eq!(back, rec);
    // The u64::MAX request ID must appear as a plain integer, not a float.
    assert!(
        json.contains(&u64::MAX.to_string()),
        "id mangled in: {json}"
    );
}

#[test]
fn incomplete_record_keeps_none_fields() {
    let rec = RequestRecord {
        id: RequestId(1),
        session: SessionId(0),
        interaction: Interaction { idx: 0 },
        client_send: SimTime::from_micros(5),
        client_recv: None, // still in flight
        status: 503,
        spans: vec![],
    };
    let json = to_string(&rec);
    let back: RequestRecord = from_str(&json).expect("record parses back");
    assert_eq!(back, rec);
    assert!(
        json.contains("\"client_recv\":null"),
        "None must encode as null: {json}"
    );
    // Pretty output parses identically.
    let back_pretty: RequestRecord = from_str(&to_string_pretty(&rec)).expect("pretty parses back");
    assert_eq!(back_pretty, rec);
}

// ------------------------------------------------------------------
// ntier::config
// ------------------------------------------------------------------

#[test]
fn all_scenario_configs_roundtrip() {
    for cfg in [
        SystemConfig::rubbos_baseline(800),
        SystemConfig::scenario_db_io(4000),
        SystemConfig::scenario_dirty_page(2000),
    ] {
        let json = to_string(&cfg);
        let back: SystemConfig = from_str(&json).expect("config parses back");
        assert_eq!(back, cfg);
        // Pretty form carries the same data.
        let back: SystemConfig = from_str(&to_string_pretty(&cfg)).expect("pretty parses");
        assert_eq!(back, cfg);
    }
}

#[test]
fn config_json_is_self_describing() {
    let json = to_string(&SystemConfig::rubbos_baseline(100));
    let doc = Json::parse(&json).expect("valid json");
    // Spot-check the document structure a human (or an external tool)
    // would navigate.
    assert_eq!(doc["workload"]["users"].as_i64(), Some(100));
    assert_eq!(doc["tiers"].as_array().map(Vec::len), Some(4));
    assert!(doc["seed"].as_i64().is_some());
}

// ------------------------------------------------------------------
// warehouse::value
// ------------------------------------------------------------------

#[test]
fn warehouse_values_roundtrip() {
    let values = vec![
        Value::Null,
        Value::Bool(true),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(0.15625),
        Value::Timestamp(86_399_999_999),
        Value::Text(String::new()),
        Value::Text("plain".into()),
    ];
    // One by one…
    for v in &values {
        let back: Value = from_str(&to_string(v)).expect("value parses back");
        assert_eq!(&back, v);
    }
    // …and as a nested collection.
    let back: Vec<Value> = from_str(&to_string(&values)).expect("vec parses back");
    assert_eq!(back, values);
}

#[test]
fn text_escaping_survives() {
    let nasty = [
        "quote \" backslash \\ slash /",
        "newline \n tab \t return \r",
        "control \u{0001}\u{001f}",
        "unicode é ß 中 🦀",
        "csv,breaker;'quotes'",
    ];
    for s in nasty {
        let v = Value::Text(s.to_string());
        let json = to_string(&v);
        let back: Value = from_str(&json).expect("escaped text parses back");
        assert_eq!(back, v, "drift for {s:?} via {json}");
        // The encoded form must be pure ASCII-safe JSON: no raw control
        // characters allowed by RFC 8259.
        assert!(
            !json.chars().any(|c| c.is_control()),
            "raw control char leaked into {json:?}"
        );
    }
}

#[test]
fn nan_and_infinity_serialize_as_null() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let json = to_string(&Value::Float(f));
        assert!(json.contains("null"), "{f} must encode as null, got {json}");
        // The policy is lossy by design: null comes back as NaN.
        let back: Value = from_str(&json).expect("null parses into float slot");
        match back {
            Value::Float(v) => assert!(v.is_nan(), "{f} → {v}"),
            other => panic!("expected Float(NaN), got {other:?}"),
        }
    }
    // Finite floats are untouched by the policy.
    let back: f64 = from_str(&to_string(&1.5e300f64)).expect("finite float");
    assert_eq!(back, 1.5e300);
}

#[test]
fn nested_collections_roundtrip() {
    use std::collections::BTreeMap;
    let mut by_tier: BTreeMap<String, Vec<Option<Value>>> = BTreeMap::new();
    by_tier.insert("apache".into(), vec![Some(Value::Int(1)), None]);
    by_tier.insert("mysql".into(), vec![Some(Value::Text("q\"uote".into()))]);
    by_tier.insert("empty".into(), vec![]);
    let json = to_string(&by_tier);
    let back: BTreeMap<String, Vec<Option<Value>>> = from_str(&json).expect("map parses back");
    assert_eq!(back, by_tier);

    // Tuples and integer-keyed maps nest too.
    let deep: Vec<(u32, BTreeMap<u64, Vec<f64>>)> = vec![
        (1, BTreeMap::from([(10, vec![0.5, 0.25]), (20, vec![])])),
        (2, BTreeMap::new()),
    ];
    let back: Vec<(u32, BTreeMap<u64, Vec<f64>>)> =
        from_str(&to_string(&deep)).expect("deep structure parses back");
    assert_eq!(back, deep);
}

#[test]
fn malformed_documents_are_rejected_with_position() {
    for bad in [
        "{",
        "{\"a\":}",
        "[1,]",
        "\"unterminated",
        "{\"a\":1,}",
        "nul",
    ] {
        let err = from_str::<Json>(bad).expect_err("must reject");
        let msg = err.to_string();
        assert!(
            msg.contains("at byte"),
            "error for {bad:?} lacks a position: {msg}"
        );
    }
}

// ------------------------------------------------------------------
// Hostile input
// ------------------------------------------------------------------

/// Nesting depths around and far past the parser's cap of 128.
const NESTINGS: [usize; 7] = [1, 6, 127, 128, 129, 1_000, 200_000];

const JSON_SOUP: [&str; 26] = [
    "{", "}", "[", "]", ",", ":", "\"", "\"k\"", "\\", "\\u", "\\uD800", "\\u00e9", "null", "nul",
    "true", "false", "-", "0", "01", "1e", "1.5e308", "1e999", " ", "\n", "é", "\u{1}",
];

/// Token soup; a serialized preset config with a few character edits; or
/// arrays or objects nested to one of [`NESTINGS`].
fn arb_hostile_json(g: &mut Gen) -> String {
    match g.usize(0..=3) {
        0 => (0..g.usize(0..=40)).map(|_| g.choose(&JSON_SOUP)).collect(),
        1 => {
            let depth = g.choose(&NESTINGS);
            if g.bool() {
                "[".repeat(depth) + &"]".repeat(depth)
            } else {
                "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth)
            }
        }
        _ => {
            let presets = SystemConfig::presets();
            let (_, cfg) = &presets[g.usize(0..=presets.len() - 1)];
            let mut doc: Vec<char> = to_string(cfg).chars().collect();
            for _ in 0..g.usize(1..=3) {
                if doc.is_empty() {
                    break;
                }
                let at = g.usize(0..=doc.len() - 1);
                match g.usize(0..=4) {
                    0 => doc.truncate(at),
                    1 => {
                        doc.remove(at);
                    }
                    2 => doc.insert(at, doc[at]),
                    3 => {
                        let other = g.usize(0..=doc.len() - 1);
                        doc.swap(at, other);
                    }
                    _ => {
                        doc.splice(at..at, g.choose(&JSON_SOUP).chars());
                    }
                }
            }
            doc.into_iter().collect()
        }
    }
}

/// Fixed seed (the property name) and case count, as for SQL and XML:
/// every case parses, or fails with a positioned [`JsonError`]; decoding a
/// config from it never panics either.
///
/// [`JsonError`]: mscope_serdes::JsonError
#[test]
fn hostile_json_never_panics() {
    forall("hostile json is Ok or a typed error", 1024, |g| {
        let text = arb_hostile_json(g);
        let shown: String = text.chars().take(200).collect();
        let outcome =
            std::panic::catch_unwind(|| (Json::parse(&text), from_str::<SystemConfig>(&text)));
        let Ok((parsed, _decoded)) = outcome else {
            return Err(format!("panicked on `{shown}`"));
        };
        if let Err(e) = parsed {
            prop_ensure!(e.offset.is_some(), "unpositioned error on `{shown}`: {e}");
        }
        Ok(())
    });
}
