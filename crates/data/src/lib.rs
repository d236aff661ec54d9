//! Columnar tabular dataset substrate for rule induction.
//!
//! This crate provides the data layer shared by every learner in the PNrule
//! workspace: a columnar [`Dataset`] with mixed numeric/categorical
//! attributes, per-record weights, interned class labels, lazily computed
//! per-attribute sort indexes (which power single-scan numeric condition
//! search), row subsets ([`RowSet`]), CSV I/O over the workspace's one
//! line reader ([`LineReader`]), train/test splitting and the
//! stratified-weighting transform used for the paper's `-we` classifier
//! variants.
//!
//! Missing values are deliberately **not** supported: none of the paper's
//! datasets (synthetic models or KDD-CUP'99) contain them, and the learners
//! built on this substrate assume complete records.
//!
//! # Example
//!
//! ```
//! use pnr_data::{DatasetBuilder, AttrType, Value};
//!
//! let mut b = DatasetBuilder::new();
//! b.add_attribute("duration", AttrType::Numeric);
//! b.add_attribute("protocol", AttrType::Categorical);
//! b.push_row(&[Value::num(0.5), Value::cat("tcp")], "normal", 1.0).unwrap();
//! b.push_row(&[Value::num(3.0), Value::cat("udp")], "attack", 1.0).unwrap();
//! let data = b.finish();
//! assert_eq!(data.n_rows(), 2);
//! assert_eq!(data.class_name(data.label(1)), "attack");
//! ```

mod atomic;
#[cfg(feature = "audit")]
pub mod audit;
mod builder;
mod csv;
mod dataset;
mod dict;
mod error;
pub mod fingerprint;
pub mod index;
mod lines;
mod rowset;
mod schema;
mod split;
mod stats;
pub mod weights;

pub use atomic::write_atomic;
pub use builder::{DatasetBuilder, Value};
pub use csv::{
    read_csv, read_csv_chunked, read_csv_str, read_csv_str_with_report, read_csv_with_report,
    write_csv, write_csv_header_string, write_csv_rows_string, write_csv_string, CsvOptions,
    LoadReport, RowPolicy,
};
pub use dataset::{Column, Dataset};
pub use dict::Dictionary;
pub use error::DataError;
pub use lines::LineReader;
pub use rowset::{filter_members, RowSet};
pub use schema::{AttrType, Attribute, Schema};
pub use split::{stratified_split, subsample_class, train_test_split};
pub use stats::{describe, summarize, AttrSummary, CategoricalSummary, NumericSummary};
pub use weights::{ordered_sum, stratify_weights, total_weight, weight_of_class};
