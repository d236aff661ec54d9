//! A KDD-CUP'99-style network-intrusion dataset **simulator**.
//!
//! The paper's section 4 evaluates PNrule on the KDD-CUP'99 contest data —
//! ~5 million connection records from a monitored military network, five
//! classes (`normal`, `dos`, `probe`, `r2l`, `u2r`), with two rare classes
//! (`probe` 0.83%, `r2l` 0.23% of the 10% training sample) and a test set
//! with a *different* class distribution and *new attack subclasses*.
//!
//! The real traces are not redistributable, so this crate generates a
//! synthetic equivalent that preserves the properties the experiment
//! actually exercises:
//!
//! * the KDD'99 schema shape — categorical `protocol_type` / `service` /
//!   `flag` plus numeric traffic counters and rates;
//! * the contest's class proportions in train and the **shifted**
//!   proportions in test (probe 1.34%, r2l 5.2%);
//! * subclass structure per attack category (e.g. `smurf`/`neptune`/
//!   `back`/`teardrop`/`ftp_flood` inside `dos`), with **test-only novel
//!   subclasses** (`nmap_like` probes, `snmp_guess` r2l) exactly as the
//!   contest test set contained attacks absent from training;
//! * the paper's headline overlap: the presence signature of `r2l`
//!   (ftp-flavoured services) also covers `dos` ftp flooding, so a learner
//!   must model the *absence* of dos indicators to be precise.
//!
//! Absolute scores on this simulation differ from the paper's; the method
//! ordering and the response to PNrule's `rp`/`rn`/P-rule-length knobs are
//! what the reproduction checks.
//!
//! # Example
//!
//! ```
//! use pnr_kddsim::{generate_test, generate_train};
//!
//! let train = generate_train(20_000, 7);
//! let test = generate_test(10_000, 8);
//! let r2l = train.class_code("r2l").unwrap();
//! let train_frac = train.class_counts()[r2l as usize] as f64 / train.n_rows() as f64;
//! let test_frac = test.class_counts()[r2l as usize] as f64 / test.n_rows() as f64;
//! assert!(test_frac > 5.0 * train_frac, "test distribution is shifted");
//! ```

pub mod drift;
pub mod faults;
mod schema;
mod subclass;

pub use drift::{DriftSchedule, DriftStream, Mix};
pub use faults::{row_fields, FaultCensus, FaultInjector, InjectedFault};
pub use schema::{
    attr_index, build_schema_builder, try_attr_index, ATTR_NAMES, CLASSES, FLAGS, N_ATTRS,
    PROTOCOLS, SERVICES,
};
pub use subclass::{test_mix, train_mix, Subclass, SubclassSpec};

use pnr_data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates a training-distribution dataset of `n` records.
pub fn generate_train(n: usize, seed: u64) -> Dataset {
    generate_with_mix(n, seed, &train_mix())
}

/// Generates a test-distribution dataset of `n` records (shifted class
/// proportions, novel subclasses).
pub fn generate_test(n: usize, seed: u64) -> Dataset {
    generate_with_mix(n, seed, &test_mix())
}

/// Generates `n` records from an explicit subclass mix (weights need not be
/// normalised). Deterministic in `seed`: one [`MixStream`] chunk of all `n`
/// records, or the empty fixed-schema dataset when `n == 0`.
pub fn generate_with_mix(n: usize, seed: u64, mix: &[(Subclass, f64)]) -> Dataset {
    MixStream::new(n, seed, mix)
        .next_chunk(n)
        .unwrap_or_else(|| build_schema_builder().finish())
}

/// Largest-remainder apportionment of `n` records over the mix: every
/// subclass gets its exact share (stochastic rounding would lose rare
/// subclasses entirely at small `n`). Pure in its inputs.
fn apportion(n: usize, mix: &[(Subclass, f64)]) -> Vec<usize> {
    assert!(!mix.is_empty(), "mix must not be empty");
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "mix weights must sum to a positive value");
    let mut counts: Vec<usize> = mix
        .iter()
        .map(|(_, w)| ((w / total) * n as f64).floor() as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = mix
        .iter()
        .enumerate()
        .map(|(i, (_, w))| (i, (w / total) * n as f64 - counts[i] as f64))
        .collect();
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite remainders"));
    for k in 0..n - assigned {
        counts[remainders[k % remainders.len()].0] += 1;
    }
    counts
}

/// The generator's one emission loop: the records of a mix, emitted
/// subclass by subclass from one seeded RNG as bounded-size [`Dataset`]
/// chunks, so tens of millions of rows never exist in memory at once.
///
/// [`generate_with_mix`] is this stream drained in one chunk, so the
/// concatenation of any stream's chunks is **bit-identical** to
/// `generate_with_mix(n, seed, mix)` wherever the chunk boundaries fall.
/// Every chunk carries the full fixed KDD schema ([`build_schema_builder`]
/// pre-registers all dictionary values and classes), so chunk schemas
/// never drift.
#[derive(Debug)]
pub struct MixStream {
    rng: StdRng,
    /// `(subclass, records still to emit)` in mix order.
    queue: Vec<(Subclass, usize)>,
    /// Index of the first queue entry with records left.
    head: usize,
    remaining: usize,
}

impl MixStream {
    /// A stream that will emit exactly `n` records, deterministic in
    /// `seed`. Panics if `mix` is empty or its weights do not sum to a
    /// positive value.
    pub fn new(n: usize, seed: u64, mix: &[(Subclass, f64)]) -> Self {
        let counts = apportion(n, mix);
        MixStream {
            rng: StdRng::seed_from_u64(seed),
            queue: mix
                .iter()
                .zip(&counts)
                .map(|((s, _), &c)| (*s, c))
                .collect(),
            head: 0,
            remaining: n,
        }
    }

    /// A training-distribution stream of `n` records (see
    /// [`generate_train`]).
    pub fn train(n: usize, seed: u64) -> Self {
        Self::new(n, seed, &train_mix())
    }

    /// Records not yet emitted.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Emits the next chunk of at most `max_rows` records, or `None` once
    /// all `n` have been emitted. Chunk boundaries may fall anywhere —
    /// mid-subclass included — without changing a single emitted bit.
    pub fn next_chunk(&mut self, max_rows: usize) -> Option<Dataset> {
        if self.remaining == 0 || max_rows == 0 {
            return None;
        }
        let take = max_rows.min(self.remaining);
        let mut b = build_schema_builder();
        b.reserve(take);
        let mut emitted = 0;
        while emitted < take && self.head < self.queue.len() {
            let (subclass, left) = &mut self.queue[self.head];
            if *left == 0 {
                self.head += 1;
                continue;
            }
            let spec = subclass.spec();
            while *left > 0 && emitted < take {
                spec.emit(&mut b, &mut self.rng);
                *left -= 1;
                emitted += 1;
            }
        }
        self.remaining -= emitted;
        Some(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_proportions_match_contest() {
        let d = generate_train(100_000, 1);
        let frac = |name: &str| {
            d.class_counts()[d.class_code(name).unwrap() as usize] as f64 / d.n_rows() as f64
        };
        assert!(
            (frac("probe") - 0.0083).abs() < 0.002,
            "probe {}",
            frac("probe")
        );
        assert!((frac("r2l") - 0.0023).abs() < 0.001, "r2l {}", frac("r2l"));
        assert!(frac("dos") > 0.7, "dos {}", frac("dos"));
        assert!(frac("normal") > 0.15, "normal {}", frac("normal"));
    }

    #[test]
    fn test_proportions_are_shifted() {
        let d = generate_test(100_000, 2);
        let frac = |name: &str| {
            d.class_counts()[d.class_code(name).unwrap() as usize] as f64 / d.n_rows() as f64
        };
        assert!(
            (frac("probe") - 0.0134).abs() < 0.003,
            "probe {}",
            frac("probe")
        );
        assert!((frac("r2l") - 0.052).abs() < 0.01, "r2l {}", frac("r2l"));
    }

    #[test]
    fn schemas_of_train_and_test_agree() {
        let tr = generate_train(2_000, 3);
        let te = generate_test(2_000, 4);
        assert_eq!(tr.n_attrs(), te.n_attrs());
        for a in 0..tr.n_attrs() {
            assert_eq!(tr.schema().attr(a).name, te.schema().attr(a).name);
            assert_eq!(
                tr.schema().attr(a).dict.len(),
                te.schema().attr(a).dict.len()
            );
        }
        for c in CLASSES {
            assert_eq!(tr.class_code(c), te.class_code(c));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = generate_train(1_000, 5);
        let d2 = generate_train(1_000, 5);
        assert_eq!(d1.labels(), d2.labels());
        for row in (0..d1.n_rows()).step_by(53) {
            assert_eq!(
                d1.num(attr_index("src_bytes"), row),
                d2.num(attr_index("src_bytes"), row)
            );
        }
    }

    #[test]
    fn every_subclass_is_present_at_scale() {
        let d = generate_train(200_000, 6);
        // u2r is the rarest (~0.01%) — even it must appear
        let u2r = d.class_code("u2r").unwrap() as usize;
        assert!(d.class_counts()[u2r] > 0, "u2r missing");
    }

    #[test]
    fn empty_mix_is_rejected() {
        let r = std::panic::catch_unwind(|| generate_with_mix(10, 0, &[]));
        assert!(r.is_err());
    }

    #[test]
    fn zero_rows_yield_the_empty_fixed_schema() {
        let empty = generate_train(0, 3);
        assert_eq!(empty.n_rows(), 0);
        assert_eq!(
            empty.schema().fingerprint(),
            generate_train(10, 3).schema().fingerprint()
        );
    }

    #[test]
    fn streamed_chunks_concatenate_to_the_materialized_dataset() {
        // Chunk boundaries cut through subclasses at several granularities;
        // the concatenation must be bit-identical to one-shot generation.
        let n = 3_000;
        let whole = generate_train(n, 42);
        for chunk_rows in [1usize, 7, 256, 1024, 10_000] {
            let mut stream = MixStream::train(n, 42);
            let mut row0 = 0usize;
            let mut total = 0usize;
            while let Some(chunk) = stream.next_chunk(chunk_rows) {
                assert!(chunk.n_rows() <= chunk_rows);
                for r in 0..chunk.n_rows() {
                    assert_eq!(
                        chunk.label(r),
                        whole.label(row0 + r),
                        "label at {} (chunk_rows {chunk_rows})",
                        row0 + r
                    );
                    for a in 0..whole.n_attrs() {
                        match whole.column(a) {
                            pnr_data::Column::Num(_) => assert_eq!(
                                chunk.num(a, r).to_bits(),
                                whole.num(a, row0 + r).to_bits(),
                                "attr {a} row {}",
                                row0 + r
                            ),
                            pnr_data::Column::Cat(_) => assert_eq!(
                                chunk.cat(a, r),
                                whole.cat(a, r + row0),
                                "attr {a} row {}",
                                row0 + r
                            ),
                        }
                    }
                }
                row0 += chunk.n_rows();
                total += chunk.n_rows();
            }
            assert_eq!(total, n, "stream must emit exactly n rows");
            assert_eq!(stream.remaining(), 0);
        }
    }

    #[test]
    fn stream_chunks_share_the_fixed_schema() {
        let mut stream = MixStream::train(500, 9);
        let whole = generate_train(500, 9);
        while let Some(chunk) = stream.next_chunk(100) {
            assert_eq!(
                chunk.schema().fingerprint(),
                whole.schema().fingerprint(),
                "chunk schema drifted"
            );
        }
    }
}
