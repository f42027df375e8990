//! Differential tests for the streaming JSON codec.
//!
//! `to_json_string` / `from_json_str` / `FlightRecord::parse` stream text
//! straight to and from typed values. The reference model is the document
//! path they replaced: render `to_json()` with `Value::to_string_compact`,
//! and read with `parse` followed by `from_json` (plus, for flight records,
//! the original tree-backfilling version upgrade, kept verbatim below).
//!
//! Two contracts, over random values and mutated texts:
//!
//! 1. **Writers are byte-identical**: `to_json_string` equals
//!    `to_json().to_string_compact()` for random `FlightRecord`s (NaN, ±inf
//!    and `None` values, labels and phases with quotes, control characters
//!    and non-ASCII), `RunResult`s, `ScenarioConfig`s and `FaultPlan`s.
//! 2. **Readers agree on Ok vs Err**: on reordered, duplicated, unknown and
//!    dropped keys, extra whitespace, truncations, byte flips and v3→v2/v1
//!    downgrades, both paths accept or both reject; when both accept, the
//!    two values re-serialize to equal bytes. A dropped required key must
//!    give the same `missing field` message on both.
//!
//! Replay a failing case with `ELEPHANTS_PROP_SEED=<seed>`; soak with
//! `ELEPHANTS_PROP_CASES=<n>`.

use elephants::chaos::generate_case;
use elephants::experiments::{LinkResult, RunCache, RunResult, ScenarioConfig};
use elephants::json::{parse, FromJson, JsonError, ToJson, Value};
use elephants::netsim::prop::{run_cases, vec_of, DEFAULT_CASES};
use elephants::netsim::{prop_check_eq, FaultPlan, RngExt, SmallRng};
use elephants::telemetry::{
    EventPoint, FlightRecord, FlowPoint, QueuePoint, FLIGHT_RECORD_VERSION,
};

// ---- the reference model ------------------------------------------------

/// The document path: parse the whole text into a tree, then convert.
fn dom<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Append `(name, 0)` to every object in a JSON array field unless the
/// key is already present (the tree-backfill behind the original upgrade).
fn backfill_zero(v: &mut Value, array_field: &str, name: &str) {
    let Value::Object(fields) = v else { return };
    let Some((_, Value::Array(rows))) = fields.iter_mut().find(|(k, _)| k == array_field) else {
        return;
    };
    for row in rows {
        if let Value::Object(row_fields) = row {
            if !row_fields.iter().any(|(k, _)| k == name) {
                row_fields.push((name.to_string(), Value::Int(0)));
            }
        }
    }
}

/// The flight-record parser as it was before streaming.
fn dom_record(text: &str) -> Result<FlightRecord, JsonError> {
    let mut v = parse(text)?;
    let version = u32::from_json(v.get_field("schema_version")?)?;
    if version == 0 || version > FLIGHT_RECORD_VERSION {
        return Err(JsonError::new(format!("flight record schema v{version}")));
    }
    if version < 3 {
        backfill_zero(&mut v, "flow_samples", "delivered_bytes");
        backfill_zero(&mut v, "flow_samples", "retx");
    }
    if version < 2 {
        backfill_zero(&mut v, "queue_samples", "link");
    }
    FlightRecord::from_json(&v)
}

// ---- generators ---------------------------------------------------------

fn gen_string(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 14] = [
        "probe_bw:1.25", "slow_start", "a", "Z9", " ", "\"", "\\", "/", "\n", "\u{1}", "\u{1f}",
        "\u{7f}", "é", "\u{1F600}",
    ];
    let n = rng.random_range(0usize..8);
    (0..n).map(|_| PIECES[rng.random_range(0..PIECES.len())]).collect()
}

fn gen_f64(rng: &mut SmallRng) -> f64 {
    match rng.random_range(0u32..10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MAX,
        6 => rng.random_range(0u32..1_000_000) as f64,
        7 => rng.random_range(-1e-9..1e-9),
        _ => rng.random_range(-1e6..1e6),
    }
}

fn gen_u64(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0u32..4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.random_range(0u64..10_000_000_000),
    }
}

fn gen_opt<T>(rng: &mut SmallRng, gen: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
    if rng.random_bool(0.3) {
        None
    } else {
        Some(gen(rng))
    }
}

fn gen_record(rng: &mut SmallRng) -> FlightRecord {
    FlightRecord {
        schema_version: FLIGHT_RECORD_VERSION,
        label: gen_string(rng),
        seed: gen_u64(rng),
        sample_interval_s: gen_f64(rng),
        flow_samples: vec_of(rng, 0, 8, |r| FlowPoint {
            t_s: gen_f64(r),
            flow: if r.random_bool(0.2) { u32::MAX } else { r.random_range(0u32..4) },
            cwnd: gen_u64(r),
            pacing_bps: gen_opt(r, gen_u64),
            srtt_s: gen_opt(r, gen_f64),
            inflight: gen_u64(r),
            phase: gen_string(r),
            delivered_bytes: gen_u64(r),
            retx: gen_u64(r),
        }),
        queue_samples: vec_of(rng, 0, 6, |r| QueuePoint {
            t_s: gen_f64(r),
            link: r.random_range(0u32..3),
            backlog_pkts: gen_u64(r),
            backlog_bytes: gen_u64(r),
            dropped: gen_u64(r),
            marked: gen_u64(r),
            control: gen_opt(r, gen_f64),
        }),
        events: vec_of(rng, 0, 4, |r| EventPoint {
            t_s: gen_f64(r),
            kind: gen_string(r),
            flow: r.random::<u32>(),
            seq: gen_u64(r),
            size: r.random::<u32>(),
        }),
        events_truncated: gen_u64(rng),
    }
}

fn gen_run_result(rng: &mut SmallRng) -> RunResult {
    RunResult {
        sender_mbps: vec_of(rng, 0, 4, gen_f64),
        jain: gen_f64(rng),
        utilization: gen_f64(rng),
        retransmits: gen_u64(rng),
        rtos: gen_u64(rng),
        drops: gen_u64(rng),
        down_drops: gen_u64(rng),
        flows: rng.random::<u32>(),
        events: gen_u64(rng),
        peak_queue_pkts: gen_u64(rng),
        fault_events_applied: gen_u64(rng),
        record_path: gen_opt(rng, gen_string),
        links: vec_of(rng, 0, 3, |r| LinkResult {
            link: r.random::<u32>(),
            drops: gen_u64(r),
            down_drops: gen_u64(r),
            peak_queue_pkts: gen_u64(r),
            utilization: gen_f64(r),
        }),
    }
}

fn gen_config(rng: &mut SmallRng) -> ScenarioConfig {
    let mut cfg = generate_case(rng.random::<u64>());
    if rng.random_bool(0.3) {
        cfg.start_offset_ms = vec_of(rng, 1, 3, gen_u64);
    }
    cfg
}

/// A small random document, for unknown keys and conflicting duplicates.
fn gen_value(rng: &mut SmallRng, depth: u32) -> Value {
    match rng.random_range(0u32..if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => Value::Int(gen_u64(rng) as i128 - rng.random_range(0i64..1000) as i128),
        3 => Value::Float(gen_f64(rng)),
        4 => Value::Str(gen_string(rng)),
        5 => Value::Array(vec_of(rng, 0, 3, |r| gen_value(r, depth - 1))),
        _ => Value::Object(vec_of(rng, 0, 3, |r| (gen_string(r), gen_value(r, depth - 1)))),
    }
}

// ---- mutations ----------------------------------------------------------

type Fields = Vec<(String, Value)>;

fn count_objects(v: &Value) -> usize {
    match v {
        Value::Object(fields) => 1 + fields.iter().map(|(_, c)| count_objects(c)).sum::<usize>(),
        Value::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

/// Apply `f` to the `n`-th object of `v` in pre-order.
fn with_nth_object(v: &mut Value, n: &mut usize, f: &mut dyn FnMut(&mut Fields)) -> bool {
    match v {
        Value::Object(fields) => {
            if *n == 0 {
                f(fields);
                return true;
            }
            *n -= 1;
            fields.iter_mut().any(|(_, c)| with_nth_object(c, n, f))
        }
        Value::Array(items) => items.iter_mut().any(|c| with_nth_object(c, n, f)),
        _ => false,
    }
}

/// Apply `f` to one object of `v`, chosen uniformly.
fn mutate_random_object(
    rng: &mut SmallRng,
    v: &mut Value,
    mut f: impl FnMut(&mut SmallRng, &mut Fields),
) {
    let objects = count_objects(v);
    if objects > 0 {
        let mut n = rng.random_range(0..objects);
        with_nth_object(v, &mut n, &mut |fields| f(rng, fields));
    }
}

fn shuffle_keys(rng: &mut SmallRng, v: &mut Value) {
    match v {
        Value::Object(fields) => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.random_range(0..=i));
            }
            fields.iter_mut().for_each(|(_, c)| shuffle_keys(rng, c));
        }
        Value::Array(items) => items.iter_mut().for_each(|c| shuffle_keys(rng, c)),
        _ => {}
    }
}

/// Sprinkle whitespace between tokens (never inside strings).
fn add_whitespace(rng: &mut SmallRng, text: &str) -> String {
    const WS: [&str; 4] = [" ", "\t", "\n", "\r\n  "];
    let mut out = String::with_capacity(text.len() * 2);
    let (mut in_str, mut escaped) = (false, false);
    for c in text.chars() {
        let boundary = !in_str && matches!(c, '{' | '}' | '[' | ']' | ',' | ':');
        if boundary && rng.random_bool(0.3) {
            out.push_str(WS[rng.random_range(0..WS.len())]);
        }
        out.push(c);
        if boundary && rng.random_bool(0.3) {
            out.push_str(WS[rng.random_range(0..WS.len())]);
        }
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (_, _, '"') => in_str = !in_str,
            _ => {}
        }
    }
    out
}

/// Replace one ASCII byte with another (the text stays valid UTF-8).
fn flip_byte(rng: &mut SmallRng, text: &str) -> String {
    const REPLACEMENTS: &[u8] = b"{}[],:\"\\0123456789-+.eEntfrul \x01";
    let mut bytes = text.as_bytes().to_vec();
    let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
    if let Some(&i) = ascii.get(rng.random_range(0..ascii.len().max(1))) {
        bytes[i] = REPLACEMENTS[rng.random_range(0..REPLACEMENTS.len())];
    }
    String::from_utf8(bytes).expect("ASCII-for-ASCII swaps keep UTF-8 valid")
}

fn truncate(rng: &mut SmallRng, text: &str) -> String {
    let mut cut = rng.random_range(0..text.len().max(1));
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

/// Rewrite a v3 record tree as v2 (or v1): stamp the version and drop the
/// fields that version lacked from some, all or none of the rows.
fn downgrade(rng: &mut SmallRng, v: &mut Value, version: u32) {
    let Value::Object(fields) = v else { return };
    let p = [0.0, 0.5, 1.0][rng.random_range(0usize..3)];
    for (key, value) in fields.iter_mut() {
        let drop: &[&str] = match key.as_str() {
            "schema_version" => {
                *value = Value::Int(version as i128);
                continue;
            }
            "flow_samples" => &["delivered_bytes", "retx"],
            "queue_samples" if version < 2 => &["link"],
            _ => continue,
        };
        if let Value::Array(rows) = value {
            for row in rows {
                if let Value::Object(row_fields) = row {
                    row_fields.retain(|(k, _)| !drop.contains(&k.as_str()) || !rng.random_bool(p));
                }
            }
        }
    }
}

/// A mutated variant of a text, labelled for failure messages. `dropped`
/// marks the one mutation that removes a key and changes nothing else.
struct Variant {
    what: &'static str,
    text: String,
    dropped: bool,
}

fn variants(rng: &mut SmallRng, text: &str, record: bool) -> Vec<Variant> {
    let tree = parse(text).expect("generated text parses");
    let render = |v: &Value| v.to_string_compact();
    let mut out = vec![
        Variant { what: "original", text: text.to_string(), dropped: false },
        Variant { what: "pretty", text: tree.to_string_pretty(), dropped: false },
        Variant { what: "whitespace", text: add_whitespace(rng, text), dropped: false },
        Variant { what: "truncated", text: truncate(rng, text), dropped: false },
        Variant { what: "byte flip", text: flip_byte(rng, text), dropped: false },
    ];
    let mut reordered = tree.clone();
    shuffle_keys(rng, &mut reordered);
    out.push(Variant { what: "reordered", text: render(&reordered), dropped: false });

    let mut dup = tree.clone();
    let conflicting = gen_value(rng, 2);
    mutate_random_object(rng, &mut dup, |rng, fields| {
        if !fields.is_empty() {
            let i = rng.random_range(0..fields.len());
            let mut copy = fields[i].clone();
            if rng.random_bool(0.5) {
                copy.1 = conflicting.clone();
            }
            let at = rng.random_range(i + 1..=fields.len());
            fields.insert(at, copy);
        }
    });
    out.push(Variant { what: "duplicate key", text: render(&dup), dropped: false });

    let mut unknown = tree.clone();
    let (key, value) = (format!("zz{}", gen_string(rng)), gen_value(rng, 3));
    mutate_random_object(rng, &mut unknown, |rng, fields| {
        let at = rng.random_range(0..=fields.len());
        fields.insert(at, (key.clone(), value.clone()));
    });
    out.push(Variant { what: "unknown key", text: render(&unknown), dropped: false });

    let mut fewer = tree.clone();
    mutate_random_object(rng, &mut fewer, |rng, fields| {
        if !fields.is_empty() {
            fields.remove(rng.random_range(0..fields.len()));
        }
    });
    out.push(Variant { what: "dropped key", text: render(&fewer), dropped: true });

    if record {
        for version in [2, 1] {
            let mut old = tree.clone();
            downgrade(rng, &mut old, version);
            let what = if version == 2 { "downgraded to v2" } else { "downgraded to v1" };
            out.push(Variant { what, text: render(&old), dropped: false });
        }
    }
    out
}

// ---- the differential checks --------------------------------------------

/// Both readers accept or both reject every variant; accepted values must
/// re-serialize identically. When the original text (variant 0) reads
/// fine, a dropped required key must give the same error on both.
fn agree<T: ToJson>(
    variants: &[Variant],
    reference: impl Fn(&str) -> Result<T, JsonError>,
    streamed: impl Fn(&str) -> Result<T, JsonError>,
) -> Result<(), String> {
    let original_ok = reference(&variants[0].text).is_ok();
    for v in variants {
        match (reference(&v.text), streamed(&v.text)) {
            (Ok(a), Ok(b)) => {
                prop_check_eq!(a.to_json().to_string_compact(), b.to_json_string(), "{}", v.what);
            }
            (Err(a), Err(b)) => {
                if v.dropped && original_ok {
                    prop_check_eq!(a, b, "{}: {}", v.what, v.text);
                }
            }
            (a, b) => {
                return Err(format!(
                    "{}: Ok/Err disagree on {:?}: reference {:?}, streamed {:?}",
                    v.what,
                    v.text,
                    a.err(),
                    b.err()
                ))
            }
        }
    }
    Ok(())
}

/// Writer identity for `value`, then reader agreement on its mutations.
fn check_codec<T: ToJson + FromJson>(rng: &mut SmallRng, value: &T) -> Result<(), String> {
    let text = value.to_json_string();
    prop_check_eq!(text, value.to_json().to_string_compact());
    agree(&variants(rng, &text, false), dom::<T>, T::from_json_str)
}

fn check_record_text(rng: &mut SmallRng, text: &str) -> Result<(), String> {
    let variants = variants(rng, text, true);
    agree(&variants, dom_record, FlightRecord::parse)?;
    agree(&variants, dom::<FlightRecord>, FlightRecord::from_json_str)
}

#[test]
fn flight_record_codec_matches_dom() {
    run_cases("flight_record_codec_matches_dom", DEFAULT_CASES, |rng| {
        let record = gen_record(rng);
        let text = record.to_json_string();
        prop_check_eq!(text, record.to_json().to_string_compact());
        check_record_text(rng, &text)
    });
}

#[test]
fn run_result_codec_matches_dom() {
    run_cases("run_result_codec_matches_dom", DEFAULT_CASES, |rng| {
        let result = gen_run_result(rng);
        check_codec(rng, &result)
    });
}

#[test]
fn scenario_config_codec_matches_dom() {
    run_cases("scenario_config_codec_matches_dom", DEFAULT_CASES, |rng| {
        let cfg = gen_config(rng);
        check_codec(rng, &cfg)
    });
}

#[test]
fn fault_plan_codec_matches_dom() {
    run_cases("fault_plan_codec_matches_dom", DEFAULT_CASES, |rng| {
        let plan: FaultPlan = gen_config(rng).faults;
        check_codec(rng, &plan)
    });
}

#[test]
fn pinned_record_fixtures_match_dom() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/records");
    for name in ["v1.flight.json", "v2.flight.json"] {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        let streamed = FlightRecord::parse(&text).unwrap();
        let reference = dom_record(&text).unwrap();
        assert_eq!(streamed.to_json_string(), reference.to_json().to_string_compact(), "{name}");
        run_cases(&format!("pinned_record_fixtures_match_dom/{name}"), 64, |rng| {
            check_record_text(rng, &text)
        });
    }
}

/// Hostile nesting returns `Err` on every text entry point instead of
/// overflowing the stack and aborting the process.
#[test]
fn deep_nesting_is_an_error_not_a_crash() {
    const DEPTH: usize = 100_000;
    let arrays = "[".repeat(DEPTH) + &"]".repeat(DEPTH);
    let objects = "{\"a\":".repeat(DEPTH) + "0" + &"}".repeat(DEPTH);
    let in_record = format!(
        r#"{{"schema_version":3,"label":"x","flow_samples":{arrays},"queue_samples":[]}}"#
    );
    for text in [&arrays, &objects, &in_record] {
        assert!(parse(text).is_err());
        assert!(FlightRecord::parse(text).is_err());
        assert!(RunResult::from_json_str(text).is_err());
    }

    // A corrupt cache entry is quarantined, not fatal to the sweep.
    let dir = std::env::temp_dir().join(format!("elephants-json-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    let cfg = generate_case(7);
    cache.put(&cfg, cfg.seed, &gen_run_result(&mut elephants::netsim::SeedableRng::seed_from_u64(7)));
    let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    for text in [&arrays, &objects] {
        std::fs::write(&entry, text).unwrap();
        let before = cache.quarantined();
        assert!(cache.get(&cfg, cfg.seed).is_none());
        assert_eq!(cache.quarantined(), before + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
