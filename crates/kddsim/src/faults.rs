//! Deterministic fault injection for generated CSV traffic.
//!
//! The serving stack is tested against hostile streams in three places —
//! the `kdd_csv --malformed-rate/--drift-rate` generator, the
//! `pnr-loadgen` traffic driver and the daemon fault-injection suite —
//! and all three must agree on *what* a fault looks like so counter
//! assertions line up. This module is that single source: a seeded
//! [`FaultInjector`] rewrites a row's CSV fields into one of the four
//! fault shapes the serving layer classifies, and keeps an exact
//! [`FaultCensus`] so a harness can assert the daemon's telemetry
//! counters against the number of faults actually injected.
//!
//! Fault taxonomy (mirroring `pnr_core::serving`):
//!
//! * **Malformed** (structural; the row cannot be scored):
//!   [`InjectedFault::TruncatedRow`] drops trailing fields,
//!   [`InjectedFault::UnparsableNumeric`] writes a non-numeric token into
//!   a numeric column. Both quarantine as `RecordError::Structural`.
//! * **Drifted** (scorable under a policy): [`InjectedFault::UnseenCategory`]
//!   writes a category absent from every training dictionary,
//!   [`InjectedFault::NonFiniteNumeric`] writes `NaN`/`inf`. Both count
//!   as unknown values routed through the `UnknownPolicy`.
//!
//! Everything is deterministic in the injector's seed: the same seed and
//! row stream produce the same faults at the same positions.

use pnr_data::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The CSV fields of one dataset row, in schema attribute order (class
/// label excluded). The shared row renderer for every traffic source, so
/// numeric formatting is identical between `kdd_csv` files and
/// `pnr-loadgen` wire traffic.
pub fn row_fields(data: &Dataset, row: usize) -> Vec<String> {
    (0..data.schema().n_attrs())
        .map(|i| {
            let a = data.schema().attr(i);
            if a.is_numeric() {
                data.num(i, row).to_string()
            } else {
                a.dict.name(data.cat(i, row)).to_string()
            }
        })
        .collect()
}

/// One fault shape an injector can write into a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Trailing fields dropped: the row no longer matches the header
    /// width (structural quarantine).
    TruncatedRow,
    /// A numeric column holds a non-numeric token (structural
    /// quarantine).
    UnparsableNumeric,
    /// A categorical column holds a value no training dictionary has
    /// seen (unknown value).
    UnseenCategory,
    /// A numeric column holds `NaN` or `inf` (unknown value).
    NonFiniteNumeric,
}

/// Exact counts of what an injector did, for counter assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCensus {
    /// Rows left untouched.
    pub clean_rows: u64,
    /// Rows truncated below the header width.
    pub truncated_rows: u64,
    /// Rows given an unparsable numeric field.
    pub unparsable_numerics: u64,
    /// Rows given an out-of-dictionary category.
    pub unseen_categories: u64,
    /// Rows given a NaN/infinite numeric field.
    pub non_finite_numerics: u64,
}

impl FaultCensus {
    /// Rows that were faulted in any way.
    pub fn faulted_rows(&self) -> u64 {
        self.truncated_rows
            + self.unparsable_numerics
            + self.unseen_categories
            + self.non_finite_numerics
    }

    /// Rows that became structurally unscorable.
    pub fn malformed_rows(&self) -> u64 {
        self.truncated_rows + self.unparsable_numerics
    }

    /// Rows that stayed scorable but carry unknown values.
    pub fn drifted_rows(&self) -> u64 {
        self.unseen_categories + self.non_finite_numerics
    }

    /// One human-readable census line for a generator's stderr report.
    pub fn summary(&self) -> String {
        format!(
            "fault census: {} truncated, {} unparsable-numeric, {} unseen-category, \
             {} non-finite ({} clean)",
            self.truncated_rows,
            self.unparsable_numerics,
            self.unseen_categories,
            self.non_finite_numerics,
            self.clean_rows
        )
    }
}

/// A seeded source of row faults at configured rates.
///
/// Per row, a malformed fault fires with probability `malformed_rate`;
/// otherwise a drift fault fires with probability `drift_rate`; otherwise
/// the row passes through clean. Within each family the concrete shape
/// alternates pseudo-randomly between its two variants (falling back to
/// the injectable one when a row offers no column of the needed type).
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    malformed_rate: f64,
    drift_rate: f64,
    census: FaultCensus,
    novel_seq: u64,
}

impl FaultInjector {
    /// Builds an injector; rates must be in `[0, 1]`.
    pub fn new(seed: u64, malformed_rate: f64, drift_rate: f64) -> Result<Self, String> {
        for (name, rate) in [("malformed", malformed_rate), ("drift", drift_rate)] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("{name} rate must be in [0, 1], got {rate}"));
            }
        }
        Ok(FaultInjector {
            // decouple the fault stream from the data-generation stream
            // so the same --seed yields the same rows with or without
            // injection enabled
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            malformed_rate,
            drift_rate,
            census: FaultCensus::default(),
            novel_seq: 0,
        })
    }

    /// What this injector has done so far.
    pub fn census(&self) -> &FaultCensus {
        &self.census
    }

    /// Possibly rewrites one row's fields in place. `numeric` and
    /// `categorical` list the field indices eligible for value faults
    /// (the caller knows its column layout; a class column is simply
    /// left out). Returns the fault applied, if any.
    pub fn inject(
        &mut self,
        fields: &mut Vec<String>,
        numeric: &[usize],
        categorical: &[usize],
    ) -> Option<InjectedFault> {
        let fault = self.pick(fields.len(), numeric, categorical);
        match fault {
            Some(InjectedFault::TruncatedRow) => {
                // keep at least one field: an empty row is a blank line,
                // which every reader skips instead of quarantining
                let keep = self.rng.gen_range(1..fields.len());
                fields.truncate(keep);
                self.census.truncated_rows += 1;
            }
            Some(InjectedFault::UnparsableNumeric) => {
                let col = numeric[self.rng.gen_range(0..numeric.len())];
                if let Some(f) = fields.get_mut(col) {
                    *f = "not-a-number".to_string();
                }
                self.census.unparsable_numerics += 1;
            }
            Some(InjectedFault::UnseenCategory) => {
                let col = categorical[self.rng.gen_range(0..categorical.len())];
                self.novel_seq += 1;
                if let Some(f) = fields.get_mut(col) {
                    // never collides with a simulator dictionary entry
                    *f = format!("zz-novel-{}", self.novel_seq);
                }
                self.census.unseen_categories += 1;
            }
            Some(InjectedFault::NonFiniteNumeric) => {
                let col = numeric[self.rng.gen_range(0..numeric.len())];
                let token = if self.rng.gen_bool(0.5) { "NaN" } else { "inf" };
                if let Some(f) = fields.get_mut(col) {
                    *f = token.to_string();
                }
                self.census.non_finite_numerics += 1;
            }
            None => self.census.clean_rows += 1,
        }
        fault
    }

    /// Rolls the fault family and shape for one row, degrading to
    /// whatever the row's column layout can express.
    fn pick(
        &mut self,
        width: usize,
        numeric: &[usize],
        categorical: &[usize],
    ) -> Option<InjectedFault> {
        // Both family rolls consume RNG state unconditionally so the
        // fault positions for a given seed do not depend on the rates.
        let malformed = self.rng.gen_bool(self.malformed_rate);
        let drifted = self.rng.gen_bool(self.drift_rate);
        if malformed {
            // truncation keeps 1..width fields, so it needs two
            let truncate = self.rng.gen_bool(0.5);
            if (truncate && width > 1) || numeric.is_empty() {
                if width < 2 {
                    return None;
                }
                return Some(InjectedFault::TruncatedRow);
            }
            return Some(InjectedFault::UnparsableNumeric);
        }
        if drifted {
            let unseen = self.rng.gen_bool(0.5);
            if (unseen && !categorical.is_empty()) || numeric.is_empty() {
                if categorical.is_empty() {
                    return None;
                }
                return Some(InjectedFault::UnseenCategory);
            }
            return Some(InjectedFault::NonFiniteNumeric);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Vec<String> {
        vec!["1".into(), "tcp".into(), "2.5".into(), "http".into()]
    }

    #[test]
    fn rates_are_validated() {
        assert!(FaultInjector::new(1, -0.1, 0.0).is_err());
        assert!(FaultInjector::new(1, 0.0, 1.5).is_err());
        assert!(FaultInjector::new(1, f64::NAN, 0.0).is_err());
        assert!(FaultInjector::new(1, 1.0, 1.0).is_ok());
    }

    #[test]
    fn zero_rates_leave_rows_clean() {
        let mut inj = FaultInjector::new(7, 0.0, 0.0).unwrap();
        for _ in 0..50 {
            let mut f = fields();
            assert_eq!(inj.inject(&mut f, &[0, 2], &[1, 3]), None);
            assert_eq!(f, fields());
        }
        assert_eq!(inj.census().clean_rows, 50);
        assert_eq!(inj.census().faulted_rows(), 0);
    }

    #[test]
    fn full_malformed_rate_always_malformes() {
        let mut inj = FaultInjector::new(3, 1.0, 0.0).unwrap();
        for _ in 0..50 {
            let mut f = fields();
            let fault = inj.inject(&mut f, &[0, 2], &[1, 3]).expect("fault");
            match fault {
                InjectedFault::TruncatedRow => {
                    assert!((1..4).contains(&f.len()), "kept {} fields", f.len());
                }
                InjectedFault::UnparsableNumeric => {
                    assert!(f.contains(&"not-a-number".to_string()));
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
        assert_eq!(inj.census().malformed_rows(), 50);
        assert!(inj.census().truncated_rows > 0);
        assert!(inj.census().unparsable_numerics > 0);
    }

    #[test]
    fn a_truncated_row_is_never_empty() {
        // no numeric column: every malformed fault is a truncation
        let mut inj = FaultInjector::new(13, 1.0, 0.0).unwrap();
        for _ in 0..100 {
            let mut f = vec!["tcp".to_string(), "http".to_string()];
            let fault = inj.inject(&mut f, &[], &[0, 1]);
            assert_eq!(fault, Some(InjectedFault::TruncatedRow));
            assert_eq!(f, ["tcp"]);
        }
        // a one-field row has nothing to drop and keep a field
        let mut f = vec!["tcp".to_string()];
        assert_eq!(inj.inject(&mut f, &[], &[0]), None);
        assert_eq!(f, ["tcp"]);
    }

    #[test]
    fn full_drift_rate_always_drifts_and_keeps_width() {
        let mut inj = FaultInjector::new(5, 0.0, 1.0).unwrap();
        for _ in 0..50 {
            let mut f = fields();
            let fault = inj.inject(&mut f, &[0, 2], &[1, 3]).expect("fault");
            assert_eq!(f.len(), 4, "drift never changes the width");
            match fault {
                InjectedFault::UnseenCategory => {
                    assert!(f.iter().any(|v| v.starts_with("zz-novel-")));
                }
                InjectedFault::NonFiniteNumeric => {
                    assert!(f.iter().any(|v| v == "NaN" || v == "inf"));
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
        assert_eq!(inj.census().drifted_rows(), 50);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(seed, 0.3, 0.3).unwrap();
            let mut out = Vec::new();
            for _ in 0..200 {
                let mut f = fields();
                inj.inject(&mut f, &[0, 2], &[1, 3]);
                out.push(f.join(","));
            }
            (out, *inj.census())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "different seeds fault differently");
    }

    #[test]
    fn missing_column_kinds_degrade_gracefully() {
        // no numeric columns: malformed can only truncate, drift can only
        // write unseen categories
        let mut inj = FaultInjector::new(9, 0.5, 0.5).unwrap();
        for _ in 0..100 {
            let mut f = vec!["tcp".to_string(), "http".to_string()];
            if let Some(fault) = inj.inject(&mut f, &[], &[0, 1]) {
                assert!(
                    matches!(
                        fault,
                        InjectedFault::TruncatedRow | InjectedFault::UnseenCategory
                    ),
                    "{fault:?}"
                );
            }
        }
        assert_eq!(inj.census().unparsable_numerics, 0);
        assert_eq!(inj.census().non_finite_numerics, 0);
    }

    #[test]
    fn row_fields_match_the_schema_layout() {
        let data = crate::generate_train(5, 7);
        for row in 0..5 {
            let f = row_fields(&data, row);
            assert_eq!(f.len(), crate::N_ATTRS);
            // numeric fields parse back; categorical fields are in-dict
            for (i, v) in f.iter().enumerate() {
                let a = data.schema().attr(i);
                if a.is_numeric() {
                    assert!(v.parse::<f64>().is_ok(), "attr {i}: {v}");
                } else {
                    assert!(a.dict.code(v).is_some(), "attr {i}: {v}");
                }
            }
        }
    }

    #[test]
    fn census_summary_mentions_every_kind() {
        let census = FaultCensus {
            clean_rows: 10,
            truncated_rows: 1,
            unparsable_numerics: 2,
            unseen_categories: 3,
            non_finite_numerics: 4,
        };
        let s = census.summary();
        for needle in [
            "1 truncated",
            "2 unparsable",
            "3 unseen",
            "4 non-finite",
            "10 clean",
        ] {
            assert!(s.contains(needle), "{s}");
        }
        assert_eq!(census.faulted_rows(), 10);
    }
}
