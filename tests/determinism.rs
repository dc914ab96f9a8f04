//! Hermetic-build guarantees: experiments are bit-reproducible, and the
//! in-repo JSON layer round-trips every value it can print and survives
//! any input text.

use rethink_kv_compression::core::experiments::{run_by_id, RunOptions};
use rkvc_tensor::det::SeededRng;
use rkvc_tensor::json::{to_string_pretty, JsonValue};

/// Running the same experiment twice with the same options must produce
/// byte-identical JSON — the whole point of the seeded in-repo RNG.
#[test]
fn fig1_is_bit_reproducible() {
    let opts = RunOptions::quick();
    let a = run_by_id("fig1", &opts).expect("fig1 exists");
    let b = run_by_id("fig1", &opts).expect("fig1 exists");
    let ja = to_string_pretty(&a);
    let jb = to_string_pretty(&b);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "same seed must give bit-identical experiment JSON");
}

/// The length-predictor pipeline (feature extraction, ridge fit, error
/// report) must be a pure function of the seed.
#[test]
fn table6_length_predictor_report_is_bit_reproducible() {
    let opts = RunOptions::quick();
    let a = run_by_id("table6", &opts).expect("table6 exists");
    let b = run_by_id("table6", &opts).expect("table6 exists");
    let ja = to_string_pretty(&a);
    let jb = to_string_pretty(&b);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "length-predictor report must be bit-identical across runs");
}

/// The full routing pipeline — workload synthesis, predictor fits, cluster
/// simulation, per-policy routing decisions — must be bit-reproducible.
#[test]
fn table8_router_decisions_are_bit_reproducible() {
    let opts = RunOptions::quick();
    let a = run_by_id("table8", &opts).expect("table8 exists");
    let b = run_by_id("table8", &opts).expect("table8 exists");
    let ja = to_string_pretty(&a);
    let jb = to_string_pretty(&b);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "router decisions must be bit-identical across runs");
}

/// The `rkvc_tensor::par` invariant: experiment JSON is a pure function
/// of the inputs, never of the worker-pool width. One byte of drift here
/// means some kernel's float association depends on scheduling.
#[test]
fn fig1_table6_and_ext_slo_are_thread_count_invariant() {
    // One test owns the global thread-pool knob: splitting these across
    // test fns would race `set_threads` under the parallel test runner.
    // `ext_slo` joins fig1/table6 because the session engine's follow-up
    // injection and SLO-aware admission are the newest event-loop paths —
    // a multi-turn SLO-aware run must be a pure function of the seed.
    // `table4` and `ext_task_router` were serial loops before they moved
    // onto the shared sample-loop drivers; their reductions now read
    // outputs the pool produced.
    let opts = RunOptions::quick();
    let ids = ["fig1", "table6", "ext_slo", "table4", "ext_task_router"];
    let run = |id: &str| to_string_pretty(&run_by_id(id, &opts).expect("listed id exists"));
    rkvc_tensor::par::set_threads(Some(1));
    let base: Vec<String> = ids.iter().map(|id| run(id)).collect();
    for t in [2usize, 4] {
        rkvc_tensor::par::set_threads(Some(t));
        for (id, base) in ids.iter().zip(&base) {
            assert_eq!(*base, run(id), "{id} JSON drifted at RKVC_THREADS={t}");
        }
    }
    rkvc_tensor::par::set_threads(None);
}

/// Builds an arbitrary JSON tree, depth-bounded so it stays small.
fn random_json(rng: &mut SeededRng, depth: u32) -> JsonValue {
    let max_kind = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0u32..max_kind) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen_bool(0.5)),
        2 => JsonValue::Int(rng.gen::<u64>() as i64),
        3 => {
            // Finite floats only; the printer maps non-finite to null.
            let f = rng.gen_range(-1.0e12..1.0e12);
            JsonValue::Float(f)
        }
        4 => JsonValue::Str(random_string(rng)),
        5 => {
            let n = rng.gen_range(0usize..4);
            JsonValue::Array((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..4);
            JsonValue::Object(
                (0..n)
                    .map(|i| (format!("k{i}_{}", random_string(rng)), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Strings that exercise the escape paths: quotes, backslashes, control
/// characters, and non-ASCII (forces `\u` handling on the parse side).
fn random_string(rng: &mut SeededRng) -> String {
    const POOL: &[&str] = &["a", "B", "7", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "日", "𝄞"];
    let n = rng.gen_range(0usize..8);
    (0..n).map(|_| *rng.choose(POOL)).collect()
}

rkvc_tensor::det_cases! {
    fn json_round_trips_pretty_and_compact(rng, cases = 200) {
        let v = random_json(rng, 3);
        let pretty = v.to_pretty_string();
        let compact = v.to_compact_string();
        let from_pretty = JsonValue::parse(&pretty).expect("pretty output parses");
        let from_compact = JsonValue::parse(&compact).expect("compact output parses");
        assert_eq!(from_pretty, v, "pretty round-trip");
        assert_eq!(from_compact, v, "compact round-trip");
    }
}

/// Pieces of JSON syntax and of what breaks it: structure, literals,
/// number parts, escapes (valid and not), control and multi-byte
/// characters.
const SOUP: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", " ", "\n", "null", "true", "fals", "0", "7", "-",
    "+", ".", "e", "E", "1e999", "\\u", "\\ud83d", "\\udc00", "\\u00e9", "\\q", "\u{1}", "é",
    "𝄞", "a", "NaN",
];

/// What every input must satisfy: parsing returns, and a document that
/// parses prints, compact and pretty, to text that parses back equal.
fn parses_safely(text: &str) {
    if let Ok(v) = JsonValue::parse(text) {
        for printed in [v.to_compact_string(), v.to_pretty_string()] {
            assert_eq!(JsonValue::parse(&printed).as_ref(), Ok(&v), "{text:?}");
        }
    }
}

rkvc_tensor::det_cases! {
    /// Byte soup: random bytes (lossily made UTF-8), random runs of JSON
    /// tokens, and valid documents with a few pieces inserted, replaced
    /// or cut off never panic the parser.
    fn byte_soup_never_panics_and_what_parses_round_trips(rng, cases = 512) {
        let bytes: Vec<u8> = (0..rng.gen_range(0usize..64)).map(|_| rng.gen::<u64>() as u8).collect();
        parses_safely(&String::from_utf8_lossy(&bytes));
        let tokens: String = (0..rng.gen_range(0usize..48)).map(|_| *rng.choose(SOUP)).collect();
        parses_safely(&tokens);
        let doc = random_json(rng, 3);
        let mut text = if rng.gen_bool(0.5) {
            doc.to_compact_string()
        } else {
            doc.to_pretty_string()
        };
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0..=text.len());
            let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
            let piece = *rng.choose(SOUP);
            match rng.gen_range(0u32..3) {
                0 => text.insert_str(at, piece),
                1 => text.truncate(at),
                _ => {
                    let end = (at + 1..=text.len())
                        .find(|&i| text.is_char_boundary(i))
                        .unwrap_or(at);
                    text.replace_range(at..end, piece);
                }
            }
            parses_safely(&text);
        }
    }
}

#[test]
fn parser_rejects_non_finite_floats() {
    for src in ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"] {
        assert!(
            JsonValue::parse(src).is_err(),
            "{src:?} must not parse as JSON"
        );
    }
}
