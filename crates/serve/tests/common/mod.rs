//! Seeded generators shared by the wire-protocol tests: random requests
//! whose strings stress the codecs, and the damage done to their lines.
//! `wire_props.rs` and the unit tests in `src/protocol.rs` both include
//! this file, each with `Request` in scope.

use super::Request;
use rand::rngs::StdRng;
use rand::Rng;

/// A short string drawn from characters that stress the encoder: quotes,
/// backslashes, control characters and non-ASCII text.
pub fn text(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '中', '😀',
    ];
    (0..rng.gen_range(0..10usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

pub fn texts(rng: &mut StdRng, min: usize) -> Vec<String> {
    (0..rng.gen_range(min..min + 5))
        .map(|_| text(rng))
        .collect()
}

pub fn request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..8u32) {
        0 => Request::Hello {
            // the decoder refuses an empty header
            columns: texts(rng, 1),
        },
        1 => Request::Score {
            id: text(rng),
            rows: (0..rng.gen_range(0..4usize))
                .map(|_| texts(rng, 0))
                .collect(),
            deadline_ms: rng.gen_bool(0.5).then(|| rng.gen()),
        },
        2 => Request::Swap {
            // the decoder refuses an empty path
            path: format!("{}.artifact", text(rng)),
        },
        3 => Request::Stats,
        4 => Request::Degrade {
            on: rng.gen(),
            reason: text(rng),
        },
        5 => Request::Shutdown,
        6 => Request::Panic,
        _ => Request::Stall { ms: rng.gen() },
    }
}

/// Damages `line` with 1–4 byte flips, truncations or splices of a slice
/// of `donor`, then reads the bytes back as text.
pub fn mutate(rng: &mut StdRng, line: &str, donor: &str) -> String {
    const BYTES: &[u8] = b"{}[]\",:\\-.0123456789eEtrufalsn \x00\xff";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5u32) {
        match rng.gen_range(0..3u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = if rng.gen() {
                    BYTES[rng.gen_range(0..BYTES.len())]
                } else {
                    rng.gen()
                };
            }
            1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            _ => {
                let donor = donor.as_bytes();
                let from = rng.gen_range(0..=donor.len());
                let to = rng.gen_range(from..=donor.len());
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, donor[from..to].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}
