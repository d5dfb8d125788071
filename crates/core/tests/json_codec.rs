//! The JSON codec's contracts: the golden checkpoint written before the
//! codec existed still reads and re-serializes byte for byte, random
//! values round-trip through writer and reader, and the untrusted-input
//! readers never panic on truncated or mutated documents.

use std::path::PathBuf;

use incdx_core::json::{self, Json};
use incdx_core::{load_checkpoint_file, Checkpoint};
use incdx_fault::CorrectionAction;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

const GOLDEN: &str = include_str!("fixtures/checkpoint_v2.json");

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn golden_checkpoint_reserializes_byte_for_byte() {
    let ckpt = load_checkpoint_file(&fixture("checkpoint_v2.json")).unwrap();
    assert_eq!(format!("{}\n", ckpt.to_json()), GOLDEN);
    assert_eq!(
        ckpt.label,
        "golden/quote\" backslash\\ newline\n cr\r tab\t bell\u{7} unit\u{1f} caf\u{e9} \u{1F600}"
    );
    assert_eq!(ckpt.trial_seed, u64::MAX);
    // Every correction action and the non-finite and signed-zero score
    // bit patterns are in the fixture.
    let candidates: Vec<_> = ckpt.nodes.iter().flat_map(|n| &n.candidates).collect();
    let mut tags: Vec<&str> = candidates
        .iter()
        .map(|rc| match rc.correction.action() {
            CorrectionAction::SetConst(_) => "set-const",
            CorrectionAction::ChangeKind(_) => "change-kind",
            CorrectionAction::InvertInput { .. } => "invert-input",
            CorrectionAction::RemoveInput { .. } => "remove-input",
            CorrectionAction::AddInput { .. } => "add-input",
            CorrectionAction::ReplaceInput { .. } => "replace-input",
            CorrectionAction::WireThrough { .. } => "wire-through",
            CorrectionAction::InsertGate { .. } => "insert-gate",
        })
        .collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 8, "{tags:?}");
    assert!(candidates.iter().any(|rc| rc.rank.is_nan()));
    assert!(candidates.iter().any(|rc| rc.rank == f64::INFINITY));
    assert!(candidates
        .iter()
        .any(|rc| rc.rank == 0.0 && rc.rank.is_sign_negative()));
}

/// A random string over characters that exercise every escape rule,
/// multi-byte UTF-8 and surrogate-pair territory.
fn random_string(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        '\u{e9}',
        '\u{2028}',
        '\u{fffd}',
        '\u{1F600}',
        '\u{10FFFF}',
    ];
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| {
            if rng.random_bool(0.8) {
                POOL[rng.random_range(0..POOL.len())]
            } else {
                char::from_u32(rng.random_range(0..0x11_0000u32)).unwrap_or('?')
            }
        })
        .collect()
}

fn random_float(rng: &mut StdRng) -> f64 {
    loop {
        let v = match rng.random_range(0..3u32) {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.random_range(0..1_000_000u64) as f64 / 64.0,
            _ => -(rng.random_range(0..1000u64) as f64) * 0.1,
        };
        if v.is_finite() {
            return v;
        }
    }
}

fn random_json(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth >= 4 { 5 } else { 7 };
    match rng.random_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::UInt(match rng.random_range(0..3u32) {
            0 => rng.next_u64(),
            1 => u64::MAX,
            _ => rng.random_range(0..100u64),
        }),
        3 => Json::Float(random_float(rng)),
        4 => Json::Str(random_string(rng)),
        5 => {
            let len = rng.random_range(0..5usize);
            Json::Arr((0..len).map(|_| random_json(rng, depth + 1)).collect())
        }
        _ => {
            let len = rng.random_range(0..5usize);
            Json::Obj(
                (0..len)
                    .map(|_| (random_string(rng), random_json(rng, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// Every float in `v`, for the no-exponent check.
fn floats(v: &Json, out: &mut Vec<f64>) {
    match v {
        Json::Float(x) => out.push(*x),
        Json::Arr(items) => items.iter().for_each(|i| floats(i, out)),
        Json::Obj(fields) => fields.iter().for_each(|(_, i)| floats(i, out)),
        _ => {}
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

/// Feeds `bytes` to every checkpoint reader; each must return, not
/// panic (a panic fails the test).
fn read_checkpoint_everywhere(bytes: &[u8], path: &std::path::Path) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    let _ = Checkpoint::from_json(&text);
    std::fs::write(path, bytes).unwrap();
    let _ = load_checkpoint_file(path);
}

fn temp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("incdx-json-{tag}-{}.ckpt", std::process::id()))
}

#[test]
fn checkpoint_readers_survive_every_truncation() {
    let path = temp_ckpt("trunc");
    let bytes = GOLDEN.as_bytes();
    for end in 0..bytes.len() {
        read_checkpoint_everywhere(&bytes[..end], &path);
        // A proper prefix of the document is never a valid checkpoint.
        if end + 1 < bytes.len() {
            assert!(Checkpoint::from_json(&String::from_utf8_lossy(&bytes[..end])).is_err());
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Writer then reader is the identity on values up to depth 4, and
    /// no float is ever written in exponent form.
    #[test]
    fn random_values_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = random_json(&mut rng, 0);
        let text = v.to_string();
        prop_assert!(!text.contains('\n'), "{text}");
        let back = json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&v), "{}", text);
        prop_assert_eq!(back.unwrap().to_string(), text);
        let mut fs = Vec::new();
        floats(&v, &mut fs);
        for x in fs {
            let s = Json::Float(x).to_string();
            prop_assert!(
                s.bytes().all(|b| b.is_ascii_digit() || b == b'-' || b == b'.')
                    && s.matches('.').count() == 1,
                "{x:?} written as {s}"
            );
        }
    }

    /// Random bit flips, insertions and deletions in the golden
    /// checkpoint yield `Ok` or `Err` from every reader, never a panic.
    #[test]
    fn checkpoint_readers_survive_mutation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = GOLDEN.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..8u32) {
            mutate(&mut bytes, &mut rng);
        }
        let path = temp_ckpt(&format!("mut-{seed:x}"));
        read_checkpoint_everywhere(&bytes, &path);
        std::fs::remove_file(&path).ok();
    }
}
