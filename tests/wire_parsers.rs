//! Hostile-input properties of the serving wire parsers: `Json::parse` and
//! `serve::proto::Request::parse` are fed arbitrary byte strings (through
//! `from_utf8_lossy`), JSON-shaped token soup, and truncations and byte
//! flips of every line in the generated PROTOCOL.md examples. Whatever the
//! input, the parsers must
//!
//! * never panic;
//! * reject with a stable error code (one of the documented codes, the same
//!   one on every attempt, and `bad-request` for anything that is not JSON);
//! * enforce the nesting-depth cap;
//! * round-trip every accepted value through the canonical writer.
//!
//! The persistent run cache's metrics codec (`Metrics::from_cache_text`) gets
//! the same treatment, starting from a real encoded run: every truncation,
//! every single-byte substitution and an oversized count on each
//! count-carrying line must be rejected with `Err`, random bit flips must
//! never panic, and the unaltered entry must round-trip byte for byte.

use hdpat_wafer::hdpat::serve::json::Json;
use hdpat_wafer::hdpat::serve::proto::{self, codes, Request};
use hdpat_wafer::prelude::{run, BenchmarkId, Metrics, PolicyKind, RunConfig, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every code `Request::parse` may return. The remaining codes
/// (`duplicate-id`, `not-found`, `shutting-down`) depend on daemon state
/// and are never produced by parsing alone.
const PARSE_CODES: [&str; 5] = [
    codes::BAD_REQUEST,
    codes::UNKNOWN_OP,
    codes::UNKNOWN_BENCHMARK,
    codes::UNKNOWN_POLICY,
    codes::UNKNOWN_SCALE,
];

/// Nesting levels the parser accepts below the top-level value.
const DEPTH_CAP: usize = 32;

/// Fragments the token-soup strategy glues together: structural bytes,
/// literals, numbers (including the `-0` and out-of-range spellings),
/// escapes, multibyte text, and protocol keywords.
const FRAGMENTS: [&str; 32] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "null",
    "true",
    "false",
    "0",
    "-0",
    "17",
    "-3",
    "1.5",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "\\u00e9",
    "\\ud800",
    "\\n",
    "é",
    "😀",
    "\"op\"",
    "\"submit\"",
    "\"id\"",
    "\"benchmark\"",
    "\"SPMV\"",
    "\"hdpat\"",
];

/// Checks both parsers on one input line.
fn check_line(line: &str) {
    match Json::parse(line) {
        Ok(value) => {
            let canonical = value.to_line();
            let reparsed = Json::parse(&canonical)
                .unwrap_or_else(|e| panic!("canonical form of {line:?} does not parse: {e}"));
            assert_eq!(reparsed, value, "value of {line:?} did not round-trip");
            assert_eq!(reparsed.to_line(), canonical, "writer is not canonical");
        }
        Err(_) => {
            let err = Request::parse(line).expect_err("request parsed from invalid JSON");
            assert_eq!(err.code, codes::BAD_REQUEST, "non-JSON line {line:?}");
        }
    }
    match Request::parse(line) {
        Ok(request) => {
            // The canonical rewrite of an accepted line is the same request.
            let canonical = Json::parse(line).expect("accepted line is JSON").to_line();
            let again = Request::parse(&canonical).expect("canonical line is accepted");
            assert_eq!(format!("{again:?}"), format!("{request:?}"));
        }
        Err(err) => {
            assert!(
                PARSE_CODES.contains(&err.code),
                "unexpected code `{}` for {line:?}",
                err.code
            );
            let again = Request::parse(line).expect_err("rejection is repeatable");
            assert_eq!(again.code, err.code, "error code is not stable");
            // The error response itself is a canonical wire line.
            let response = err.to_line();
            assert_eq!(Json::parse(&response).unwrap().to_line(), response);
        }
    }
}

/// Every JSON line of the generated PROTOCOL.md examples.
fn example_lines() -> Vec<String> {
    let lines: Vec<String> = proto::protocol_examples()
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect();
    assert!(lines.len() >= 10, "examples lost their wire lines");
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48)) {
        let line: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        check_line(&line);
    }

    #[test]
    fn flipped_example_bytes_never_panic(
        pick in 0usize..64,
        flips in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        let lines = example_lines();
        let mut bytes = lines[pick % lines.len()].clone().into_bytes();
        for (at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        check_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn depth_cap_is_enforced(depth in 1usize..80, objects in any::<u64>()) {
        // Level i is an object when bit i of `objects` is set, else an array.
        let mut line = String::from("0");
        for level in 0..depth {
            line = if objects >> (level % 64) & 1 == 1 {
                format!("{{\"k\":{line}}}")
            } else {
                format!("[{line}]")
            };
        }
        let accepted = Json::parse(&line).is_ok();
        prop_assert_eq!(accepted, depth <= DEPTH_CAP, "depth {}", depth);
        check_line(&line);
    }
}

#[test]
fn every_truncation_of_every_example_is_handled() {
    for line in example_lines() {
        let bytes = line.as_bytes();
        for end in 0..=bytes.len() {
            check_line(&String::from_utf8_lossy(&bytes[..end]));
        }
    }
}

#[test]
fn example_requests_parse_and_errors_carry_their_codes() {
    let lines = example_lines();
    let requests = lines
        .iter()
        .filter(|l| l.starts_with("{\"op\""))
        .inspect(|l| check_line(l))
        .filter(|l| Request::parse(l).is_ok())
        .count();
    assert!(requests >= 5, "only {requests} example requests parsed");
    for (line, code) in [
        ("[]", codes::BAD_REQUEST),
        ("{\"op\":7}", codes::BAD_REQUEST),
        ("{\"op\":\"launch\"}", codes::UNKNOWN_OP),
        (
            "{\"op\":\"submit\",\"id\":\"a\",\"benchmark\":\"NOPE\",\"policy\":\"hdpat\"}",
            codes::UNKNOWN_BENCHMARK,
        ),
        (
            "{\"op\":\"submit\",\"id\":\"a\",\"benchmark\":\"SPMV\",\"policy\":\"nope\"}",
            codes::UNKNOWN_POLICY,
        ),
        (
            "{\"op\":\"submit\",\"id\":\"a\",\"benchmark\":\"SPMV\",\"policy\":\"hdpat\",\"scale\":\"huge\"}",
            codes::UNKNOWN_SCALE,
        ),
    ] {
        assert_eq!(Request::parse(line).unwrap_err().code, code, "{line}");
    }
}

#[test]
fn numbers_keep_their_canonical_identity() {
    // `-0` is a non-negative integer, and a literal outside f64 range has
    // no JSON rendering, so it is rejected rather than turned into `null`.
    assert_eq!(Json::parse("-0"), Ok(Json::U64(0)));
    assert_eq!(Json::parse("-7"), Ok(Json::I64(-7)));
    assert!(Json::parse("1e999").is_err());
    assert!(Json::parse("[-1e999]").is_err());
    for line in [
        "-0",
        "0",
        "-0.0",
        "1e300",
        "18446744073709551616",
        "-9223372036854775809",
    ] {
        check_line(line);
    }
}

/// A real cache entry: one unit-scale HDPAT run, encoded (once per test
/// binary). It carries every section of the codec, reuse counts and
/// time-series windows included.
fn cache_entry() -> String {
    static ENTRY: OnceLock<String> = OnceLock::new();
    ENTRY
        .get_or_init(|| {
            run(&RunConfig::new(
                BenchmarkId::Spmv,
                Scale::Unit,
                PolicyKind::hdpat(),
            ))
            .to_cache_text()
        })
        .clone()
}

#[test]
fn cache_entry_round_trips() {
    let text = cache_entry();
    assert!(text.lines().any(|l| l.starts_with("c ")), "no reuse counts");
    assert!(text.lines().any(|l| l.starts_with("w ")), "no windows");
    let decoded = Metrics::from_cache_text(&text).expect("a fresh entry decodes");
    assert_eq!(decoded.to_cache_text(), text);
}

#[test]
fn every_truncation_of_a_cache_entry_is_rejected() {
    let text = cache_entry();
    for end in 0..text.len() {
        assert!(
            Metrics::from_cache_text(&text[..end]).is_err(),
            "truncation to {end} of {} bytes decoded",
            text.len()
        );
    }
}

#[test]
fn every_byte_substitution_in_a_cache_entry_is_rejected() {
    // The encoder writes lowercase keys, digits, hex, `.`, `_`, `-`, `=`,
    // spaces and newlines only; any byte outside that alphabet, anywhere,
    // must be caught.
    let text = cache_entry();
    for at in 0..text.len() {
        for poison in [b'#', b'X', 0x7f] {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = poison;
            let altered = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            assert!(
                Metrics::from_cache_text(&altered).is_err(),
                "byte {at} ({:?}) replaced by {poison:#x} decoded",
                text.as_bytes()[at] as char
            );
        }
    }
}

#[test]
fn oversized_counts_in_a_cache_entry_are_rejected() {
    // Each count-carrying line, keyed by its leading token, with the index
    // of its count field.
    const COUNTS: [(&str, usize); 6] = [
        ("gpm_finish", 1),
        ("iommu_buffer", 2),
        ("iommu_served", 2),
        ("iommu_reuse", 2),
        ("iommu_reuse.hist", 4),
        ("vpn_delta", 6),
    ];
    let text = cache_entry();
    for (key, field) in COUNTS {
        for huge in [u64::MAX, 1 << 40, text.lines().count() as u64 + 1] {
            let altered: String = text
                .lines()
                .map(|line| {
                    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
                    if tokens[0] == key {
                        tokens[field] = huge.to_string();
                    }
                    tokens.join(" ") + "\n"
                })
                .collect();
            assert_ne!(altered, text, "{key} line not found");
            assert!(
                Metrics::from_cache_text(&altered).is_err(),
                "{key} count {huge} decoded"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flipped_cache_entries_never_panic(
        flips in proptest::collection::vec((any::<usize>(), 1u8..128), 1..4),
    ) {
        // Flips inside the ASCII range keep the entry UTF-8; a flip the
        // codec cannot see (one digit for another) may still decode.
        let mut bytes = cache_entry().into_bytes();
        for (at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = Metrics::from_cache_text(&text);
        }
    }
}
