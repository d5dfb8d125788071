//! Spool records written before the JSON codec existed still read and
//! re-serialize byte for byte, and the spool and wire readers never
//! panic on truncated or mutated input.

use incdx_core::json;
use incdx_serve::{JobState, Request, Source, SpoolRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

const INTERRUPTED: &str = include_str!("fixtures/spool_interrupted.json");
const DONE: &str = include_str!("fixtures/spool_done.json");
const FAILED: &str = include_str!("fixtures/spool_failed.json");
const QUEUED: &str = include_str!("fixtures/spool_queued.json");

const ODD: &str =
    "quote\" backslash\\ newline\n cr\r tab\t bell\u{7} unit\u{1f} caf\u{e9} \u{1F600}";

const SUBMIT: &str = "{\"req\":\"submit\",\"tenant\":\"t\\\"1\\\\\\ud83d\\ude00\",\"job\":{\"netlist\":\"INPUT(a)\\nINPUT(b)\\nOUTPUT(y)\\ny = AND(a, b)\\n\",\"model\":\"dedc\",\"k\":1,\"vectors\":64,\"seed\":5,\"limits\":{\"max_nodes\":100,\"deadline_ms\":5000}}}";

fn read(line: &str) -> SpoolRecord {
    SpoolRecord::from_json(line.trim_end_matches('\n')).unwrap()
}

#[test]
fn golden_records_reserialize_byte_for_byte() {
    for golden in [INTERRUPTED, DONE, FAILED, QUEUED] {
        assert_eq!(format!("{}\n", read(golden).to_json()), golden);
    }
}

#[test]
fn golden_records_cover_the_schema() {
    let rec = read(INTERRUPTED);
    assert_eq!(rec.tenant, format!("tenant/{ODD}"));
    assert_eq!(rec.state, JobState::Interrupted);
    assert_eq!(
        rec.spec.source,
        Source::Bench(format!(
            "# golden fixture: {ODD}\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
        ))
    );
    assert_eq!(
        (rec.spec.max_nodes, rec.spec.deadline_ms),
        (Some(100_000), Some(30_000))
    );
    let ckpt = rec.checkpoint.expect("embedded checkpoint");
    assert_eq!(ckpt.label, format!("golden/{ODD}"));
    assert_eq!(ckpt.nodes.len(), 3);

    let done = read(DONE);
    let outcome = done.outcome.expect("terminal outcome");
    assert_eq!(outcome.detail, format!("detail/{ODD}"));
    assert_eq!(outcome.solutions_fp, 0x8000_0000_0000_0001);
    assert_eq!(
        (done.spec.max_nodes, done.spec.deadline_ms),
        (None, Some(2_000))
    );
    let failed = read(FAILED);
    assert_eq!(
        (failed.spec.max_nodes, failed.spec.deadline_ms),
        (Some(16), None)
    );
    let queued = read(QUEUED);
    assert_eq!(
        (queued.spec.max_nodes, queued.spec.deadline_ms),
        (None, None)
    );
}

#[test]
fn submit_request_parses() {
    match Request::parse(SUBMIT).unwrap() {
        Request::Submit { tenant, spec } => {
            assert_eq!(tenant, "t\"1\\\u{1F600}");
            assert_eq!(spec.max_nodes, Some(100));
        }
        other => panic!("wrong parse: {other:?}"),
    }
}

/// Feeds `bytes` to the readers that face it; each must return, not
/// panic (a panic fails the test).
fn read_everywhere(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    let _ = SpoolRecord::from_json(&text);
    let _ = Request::parse(&text);
}

#[test]
fn readers_survive_every_truncation() {
    for doc in [INTERRUPTED, SUBMIT] {
        let bytes = doc.as_bytes();
        for end in 0..bytes.len() {
            read_everywhere(&bytes[..end]);
        }
    }
}

/// One random edit: flip a bit, insert a byte (often a JSON
/// metacharacter), or delete a byte.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    const META: &[u8] = b"{}[],:\"\\-.e0n";
    let at = rng.random_range(0..=bytes.len());
    match rng.random_range(0..3u32) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
        1 => {
            let b = if rng.random_bool(0.5) {
                META[rng.random_range(0..META.len())]
            } else {
                rng.next_u64() as u8
            };
            bytes.insert(at, b);
        }
        _ if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bit flips, insertions and deletions in the golden spool
    /// record and a submit request yield `Ok` or `Err`, never a panic.
    #[test]
    fn readers_survive_mutation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for doc in [INTERRUPTED, SUBMIT] {
            let mut bytes = doc.as_bytes().to_vec();
            for _ in 0..rng.random_range(1..8u32) {
                mutate(&mut bytes, &mut rng);
            }
            read_everywhere(&bytes);
        }
    }
}
