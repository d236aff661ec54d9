//! Minimal CSV reader/writer for datasets.
//!
//! The format is deliberately simple (no quoting or embedded separators):
//! one header line with attribute names followed by the class column name,
//! then one record per line. Schema types are either supplied by the caller
//! or inferred (a column is numeric when every field parses as `f64`).
//!
//! Every `read_csv*` function streams its source through one loader that
//! reads a line at a time with [`LineReader`], so transient parse memory
//! is one line whether the source is a string or a file far larger than
//! RAM. Each line is read as bytes and decoded once; a line that is not
//! UTF-8 is a malformed row.
//! One scan of a line's bytes records where each field starts and ends in
//! a span buffer that every line reuses, and an accepted row is appended
//! straight into the dataset's columns, so no row allocates.

use crate::builder::DatasetBuilder;
use crate::dataset::{Column, Dataset};
use crate::error::DataError;
use crate::lines::LineReader;
use crate::schema::AttrType;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::str::Utf8Error;

/// What to do with a malformed data row (wrong field count, unparsable
/// numeric field, non-finite number, or a line that is not UTF-8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowPolicy {
    /// Any malformed row aborts the load with an error (the default).
    Fail,
    /// Quarantine malformed rows instead of failing, up to `max` of them;
    /// one more malformed row past the cap aborts the load. Skipped rows
    /// are listed in the [`LoadReport`].
    Skip {
        /// Maximum number of rows that may be quarantined.
        max: usize,
    },
}

/// What a [`RowPolicy::Skip`] load quarantined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// `(1-based line number, why)` for each quarantined row, in file
    /// order. Empty when every row loaded.
    pub skipped: Vec<(usize, String)>,
}

impl LoadReport {
    /// Number of quarantined rows.
    pub fn n_skipped(&self) -> usize {
        self.skipped.len()
    }
}

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Explicit attribute types; when `None`, a first pass over the data
    /// infers them (numeric iff every field parses as a finite `f64`).
    pub types: Option<Vec<AttrType>>,
    /// Malformed-row handling (default [`RowPolicy::Fail`]).
    pub on_error: RowPolicy,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            types: None,
            on_error: RowPolicy::Fail,
        }
    }
}

/// Records one malformed row: under [`RowPolicy::Fail`] (or past the skip
/// cap) this is the load's error; otherwise the row is quarantined into
/// the report and parsing goes on.
fn quarantine(
    policy: &RowPolicy,
    report: &mut LoadReport,
    line: usize,
    message: String,
) -> Result<(), DataError> {
    match policy {
        RowPolicy::Fail => Err(DataError::Csv { line, message }),
        RowPolicy::Skip { max } => {
            if report.skipped.len() >= *max {
                Err(DataError::Csv {
                    line,
                    message: format!("{message} (skip limit of {max} malformed rows exceeded)"),
                })
            } else {
                report.skipped.push((line, message));
                Ok(())
            }
        }
    }
}

/// Reads a dataset from a CSV file. See [`read_csv_str`].
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_with_report(path, opts).map(|(d, _)| d)
}

/// Reads a dataset plus its [`LoadReport`] from a CSV file, one line at a
/// time: neither the file's text nor its records are ever held whole. With
/// inferred types the file is read twice, once to infer and once to load.
/// A data line that is not UTF-8 is a malformed row, and a header that is
/// not UTF-8 a header error. See [`read_csv_str_with_report`].
pub fn read_csv_with_report(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
) -> Result<(Dataset, LoadReport), DataError> {
    let path = path.as_ref();
    load(|| Ok(BufReader::new(File::open(path)?)), opts)
}

/// The same load as [`read_csv_with_report`], which it forwards to.
/// `chunk_rows` has no effect: the loader's transient parse memory is one
/// line whatever the chunk size. The function remains only for the two
/// call sites in the benchmark package (`pnrbench/`); the next change to
/// the benchmark removes it together with them.
pub fn read_csv_chunked(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
    _chunk_rows: usize,
) -> Result<(Dataset, LoadReport), DataError> {
    read_csv_with_report(path, opts)
}

/// Parses a dataset from CSV text. The last column is the class label; all
/// rows get weight 1.0. Convenience wrapper over
/// [`read_csv_str_with_report`] that drops the report.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_str_with_report(text, opts).map(|(d, _)| d)
}

/// Parses a dataset from CSV text, returning the dataset together with a
/// [`LoadReport`] of quarantined rows. Header problems (missing header,
/// duplicate or too-few columns, wrong type count) are always hard errors;
/// [`CsvOptions::on_error`] only governs malformed *data* rows. With
/// inferred types, a non-numeric field makes its column categorical rather
/// than its row malformed — numeric parse quarantine applies to explicitly
/// typed columns.
pub fn read_csv_str_with_report(
    text: &str,
    opts: &CsvOptions,
) -> Result<(Dataset, LoadReport), DataError> {
    load(|| Ok(text.as_bytes()), opts)
}

/// The one loader behind every `read_csv*` function. `open` yields a fresh
/// reader over the same bytes on each call: one for the load, plus one
/// before it for the inference pass when [`CsvOptions::types`] is `None`.
/// Rows are split once, appended into one builder and quarantined into one
/// report, all in file order.
fn load<R: BufRead>(
    open: impl Fn() -> Result<R, DataError>,
    opts: &CsvOptions,
) -> Result<(Dataset, LoadReport), DataError> {
    let mut split = Splitter::new(opts.separator);
    let types = match &opts.types {
        Some(types) => types.clone(),
        None => infer_types(open()?, &mut split)?,
    };
    let mut lines = LineReader::new(open()?);
    let (header_line, names) = header(&mut lines, &mut split)?;
    let n_attrs = names.len() - 1;
    if types.len() != n_attrs {
        return Err(DataError::Csv {
            line: header_line,
            message: format!("{} types supplied for {} attributes", types.len(), n_attrs),
        });
    }
    let mut b = DatasetBuilder::new();
    for (name, ty) in names[..n_attrs].iter().zip(&types) {
        b.add_attribute(name, *ty);
    }
    let mut report = LoadReport::default();
    while let Some((lineno, line)) = lines.next_line()? {
        let pushed = match line {
            Ok(line) => b.push_fields(&split.split(line)),
            Err(e) => Err(not_utf8(e)),
        };
        if let Err(message) = pushed {
            quarantine(&opts.on_error, &mut report, lineno, message)?;
        }
    }
    Ok((b.finish(), report))
}

/// Why a line whose bytes are not UTF-8 is malformed.
fn not_utf8(e: Utf8Error) -> String {
    format!("not valid UTF-8: {e}")
}

/// The inference pass: an attribute is numeric iff at least one row has
/// the right field count and every such row's field parses as a finite
/// `f64`. Rows with a wrong field count or that are not UTF-8 are left to
/// the load to report.
fn infer_types(reader: impl BufRead, split: &mut Splitter) -> Result<Vec<AttrType>, DataError> {
    let mut lines = LineReader::new(reader);
    let n_fields = header(&mut lines, split)?.1.len();
    let mut numeric = vec![true; n_fields - 1];
    let mut any_row = false;
    while let Some((_, line)) = lines.next_line()? {
        let Ok(line) = line else { continue };
        let fields = split.split(line);
        if fields.len() != n_fields {
            continue;
        }
        any_row = true;
        for (is_numeric, field) in numeric.iter_mut().zip(fields.iter()) {
            *is_numeric = *is_numeric && field.parse::<f64>().is_ok_and(f64::is_finite);
        }
    }
    Ok(numeric
        .into_iter()
        .map(|is_numeric| {
            if is_numeric && any_row {
                AttrType::Numeric
            } else {
                AttrType::Categorical
            }
        })
        .collect())
}

/// Splits lines at one separator, recording each field's byte range in
/// one span buffer that every line reuses.
struct Splitter {
    sep: String,
    spans: Vec<(usize, usize)>,
}

impl Splitter {
    fn new(sep: char) -> Self {
        Splitter {
            sep: sep.to_string(),
            spans: Vec::new(),
        }
    }

    /// The fields [`str::split`] would give for `line`, found in one scan
    /// of its bytes for the separator's encoding. The scan is exact for
    /// any `char` separator: a UTF-8 lead byte never occurs inside another
    /// character's encoding, so a match always starts a character.
    fn split<'a>(&'a mut self, line: &'a str) -> Fields<'a> {
        let sep = self.sep.as_bytes();
        let (first, rest) = (sep[0], &sep[1..]);
        let bytes = line.as_bytes();
        self.spans.clear();
        let mut start = 0;
        for (at, &b) in bytes.iter().enumerate() {
            if b == first && (rest.is_empty() || bytes[at + 1..].starts_with(rest)) {
                self.spans.push((start, at));
                start = at + sep.len();
            }
        }
        self.spans.push((start, bytes.len()));
        Fields {
            line,
            spans: &self.spans,
        }
    }
}

/// One line's fields, as byte ranges of the line.
#[derive(Clone, Copy)]
pub(crate) struct Fields<'a> {
    line: &'a str,
    spans: &'a [(usize, usize)],
}

impl<'a> Fields<'a> {
    /// Number of fields.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Field `i`, trimmed as [`str::trim`] trims.
    pub(crate) fn get(&self, i: usize) -> &'a str {
        let (start, end) = self.spans[i];
        self.line[start..end].trim()
    }

    /// Every field in order, trimmed.
    fn iter(self) -> impl Iterator<Item = &'a str> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Reads the header, the first non-blank line, and checks it: UTF-8, at
/// least one attribute and the class column, and no name twice. Returns
/// the header's 1-based physical line number and its trimmed column names,
/// class column last.
fn header<R: BufRead>(
    lines: &mut LineReader<R>,
    split: &mut Splitter,
) -> Result<(usize, Vec<String>), DataError> {
    let Some((line, header)) = lines.next_line()? else {
        return Err(DataError::Csv {
            line: 1,
            message: "missing header".into(),
        });
    };
    let header = header.map_err(|e| DataError::Csv {
        line,
        message: not_utf8(e),
    })?;
    let names: Vec<String> = split.split(header).iter().map(str::to_string).collect();
    if names.len() < 2 {
        return Err(DataError::Csv {
            line,
            message: "header needs at least one attribute and a class column".into(),
        });
    }
    let mut seen = BTreeSet::new();
    if let Some(name) = names.iter().find(|name| !seen.insert(name.as_str())) {
        return Err(DataError::DuplicateAttribute { name: name.clone() });
    }
    Ok((line, names))
}

/// Writes a dataset to a CSV file. See [`write_csv_string`].
pub fn write_csv(data: &Dataset, path: impl AsRef<Path>, sep: char) -> Result<(), DataError> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(write_csv_string(data, sep).as_bytes())?;
    out.flush()?;
    Ok(())
}

/// Renders a dataset as CSV text (weights are not serialised; CSV is a data
/// interchange format, weights are a training-time construct).
pub fn write_csv_string(data: &Dataset, sep: char) -> String {
    let mut s = write_csv_header_string(data, sep);
    s.push_str(&write_csv_rows_string(data, sep));
    s
}

/// Renders only the header line (attribute names + class column), with its
/// trailing newline. Streaming writers emit this once, then
/// [`write_csv_rows_string`] per generated batch — `header + rows + rows +
/// …` is byte-identical to one [`write_csv_string`] of the concatenated
/// data (`f64` `Display` round-trips exactly, so a write/read cycle loses
/// nothing).
pub fn write_csv_header_string(data: &Dataset, sep: char) -> String {
    let mut s = String::new();
    for a in 0..data.n_attrs() {
        let _ = write!(s, "{}{}", data.schema().attr(a).name, sep);
    }
    s.push_str("class\n");
    s
}

/// Renders only the data rows (no header), one line per row. See
/// [`write_csv_header_string`].
pub fn write_csv_rows_string(data: &Dataset, sep: char) -> String {
    let mut s = String::new();
    for row in 0..data.n_rows() {
        for a in 0..data.n_attrs() {
            match data.column(a) {
                Column::Num(_) => {
                    let _ = write!(s, "{}{}", data.num(a, row), sep);
                }
                Column::Cat(_) => {
                    let _ = write!(s, "{}{}", data.cat_name(a, row), sep);
                }
            }
        }
        s.push_str(data.class_name(data.label(row)));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_type_inference() {
        let text = "x,proto,class\n1.5,tcp,normal\n2.5,udp,attack\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.schema().attr(0).ty, AttrType::Numeric);
        assert_eq!(d.schema().attr(1).ty, AttrType::Categorical);
        assert_eq!(d.num(0, 1), 2.5);
        assert_eq!(d.cat_name(1, 0), "tcp");
        assert_eq!(d.class_name(d.label(1)), "attack");
    }

    #[test]
    fn numeric_looking_column_can_be_forced_categorical() {
        let text = "code,class\n1,a\n2,b\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Categorical]),
            ..Default::default()
        };
        let d = read_csv_str(text, &opts).unwrap();
        assert_eq!(d.schema().attr(0).ty, AttrType::Categorical);
        assert_eq!(d.cat_name(0, 1), "2");
    }

    #[test]
    fn round_trip_preserves_values() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n3,a,c0\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        let rendered = write_csv_string(&d, ',');
        let d2 = read_csv_str(&rendered, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), d.n_rows());
        for row in 0..d.n_rows() {
            assert_eq!(d2.num(0, row), d.num(0, row));
            assert_eq!(d2.cat_name(1, row), d.cat_name(1, row));
            assert_eq!(d2.class_name(d2.label(row)), d.class_name(d.label(row)));
        }
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let text = "x,class\n1,a\n2\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn duplicate_column_name_is_error() {
        let text = "x,x,class\n1,2,a\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute { .. }), "{err}");
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_csv_str("", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn wrong_type_count_is_error() {
        let opts = CsvOptions {
            types: Some(vec![]),
            ..Default::default()
        };
        for (text, line) in [("x,class\n1,a\n", 1), ("\n\nx,class\n1,a\n", 3)] {
            let err = read_csv_str(text, &opts).unwrap_err();
            let want = format!("csv line {line}: 0 types supplied for 1 attributes");
            assert_eq!(err.to_string(), want, "{text:?}");
        }
    }

    #[test]
    fn a_short_header_is_reported_at_its_own_line() {
        for (text, line) in [("x\n", 1), ("\n\nx\n", 3)] {
            let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
            let want =
                format!("csv line {line}: header needs at least one attribute and a class column");
            assert_eq!(err.to_string(), want, "{text:?}");
        }
    }

    #[test]
    fn alternative_separator() {
        let text = "x;class\n4;a\n";
        let opts = CsvOptions {
            separator: ';',
            ..Default::default()
        };
        let d = read_csv_str(text, &opts).unwrap();
        assert_eq!(d.num(0, 0), 4.0);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "x,class\n\n1,a\n\n2,b\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn skip_policy_quarantines_bad_rows_and_reports_lines() {
        // line 3 has a missing field, line 5 a non-numeric value in an
        // explicitly numeric column
        let text = "x,class\n1,a\n2\n3,b\nfour,c\n5,a\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 10 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report(text, &opts).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(report.n_skipped(), 2);
        assert_eq!(report.skipped[0].0, 3);
        assert_eq!(report.skipped[1].0, 5);
        assert!(report.skipped[1].1.contains("not numeric"), "{report:?}");
    }

    #[test]
    fn skip_cap_is_enforced() {
        let text = "x,class\n1\n2\n3,a\n";
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 1 },
            ..Default::default()
        };
        let err = read_csv_str_with_report(text, &opts).unwrap_err();
        assert!(err.to_string().contains("skip limit"), "{err}");
        // with a big enough cap the same text loads
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 2 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report(text, &opts).unwrap();
        assert_eq!(d.n_rows(), 1);
        assert_eq!(report.n_skipped(), 2);
    }

    #[test]
    fn fail_policy_stays_default_and_reports_first_error() {
        assert_eq!(CsvOptions::default().on_error, RowPolicy::Fail);
        let text = "x,class\n1,a\n2\n";
        let err = read_csv_str(text, &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn clean_load_has_empty_report() {
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 5 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report("x,class\n1,a\n2,b\n", &opts).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn skip_report_lists_rows_in_file_order() {
        // A non-numeric field (line 3) comes before a short row (line 4);
        // the report follows the file, whichever check a row failed.
        let text = "x,class\n1,a\nnope,b\n2\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 10 },
            ..Default::default()
        };
        let (d, report) = read_csv_str_with_report(text, &opts).unwrap();
        assert_eq!(d.n_rows(), 1);
        let lines: Vec<usize> = report.skipped.iter().map(|(n, _)| *n).collect();
        assert_eq!(lines, [3, 4], "{report:?}");
    }

    #[test]
    fn inference_reads_only_rows_with_the_right_field_count() {
        let opts = CsvOptions {
            on_error: RowPolicy::Skip { max: 5 },
            ..Default::default()
        };
        // "b,n" is short a field; were it read, "b" would make x categorical.
        let (d, report) =
            read_csv_str_with_report("x,k,class\n1,a,p\nb,n\n2,c,q\n", &opts).unwrap();
        assert_eq!(d.schema().attr(0).ty, AttrType::Numeric);
        assert_eq!((d.n_rows(), report.n_skipped()), (2, 1));
        // With no row of the right field count, nothing is numeric.
        for text in ["x,class\n", "x,class\n1\n"] {
            let d = read_csv_str(text, &opts).unwrap();
            assert_eq!(d.schema().attr(0).ty, AttrType::Categorical, "{text:?}");
        }
    }

    /// A load's outcome in comparable form: the dataset as JSON (exact for
    /// every `f64`, dictionary order included) with its report, or the
    /// error message.
    fn outcome(
        load: &Result<(Dataset, LoadReport), DataError>,
    ) -> Result<(String, LoadReport), String> {
        match load {
            Ok((d, report)) => Ok((serde_json::to_string(d).unwrap(), report.clone())),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Loads `text` from a string and from a file, through both file entry
    /// points, asserts that all three outcomes are identical, and returns
    /// the string load.
    fn assert_file_matches_str(
        text: &str,
        opts: &CsvOptions,
    ) -> Result<(Dataset, LoadReport), DataError> {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("pnr_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("load_{}_{case}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let from_file = [
            read_csv_with_report(&path, opts),
            read_csv_chunked(&path, opts, 1),
        ];
        std::fs::remove_file(&path).ok();
        let from_str = read_csv_str_with_report(text, opts);
        for load in &from_file {
            assert_eq!(outcome(load), outcome(&from_str), "text {text:?}");
        }
        from_str
    }

    #[test]
    fn file_and_str_loads_agree_with_typed_and_inferred_schemas() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n3,c,c0\n4,a,c1\n5,d,c0\n6,b,c1\n7,e,c0\n";
        let typed = CsvOptions {
            types: Some(vec![AttrType::Numeric, AttrType::Categorical]),
            ..Default::default()
        };
        for opts in [typed, CsvOptions::default()] {
            let (d, _) = assert_file_matches_str(text, &opts).unwrap();
            assert_eq!(d.n_rows(), 7);
            assert_eq!(d.schema().attr(0).ty, AttrType::Numeric);
            let dict: Vec<&str> = d.schema().attr(1).dict.iter().map(|(_, v)| v).collect();
            assert_eq!(dict, ["a", "b", "c", "d", "e"], "first-seen order");
        }
    }

    #[test]
    fn final_line_without_trailing_newline_is_kept() {
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 4 },
            ..Default::default()
        };
        let (d, report) = assert_file_matches_str("x,class\n1,a\n2,b\n3,c", &opts).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert!(report.skipped.is_empty());
        // And a final line that is both last and malformed.
        let (d, report) = assert_file_matches_str("x,class\n1,a\n2,b\nbroken", &opts).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(report.skipped[0].0, 4);
    }

    #[test]
    fn malformed_rows_among_blank_lines_are_charged_once() {
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 4 },
            ..Default::default()
        };
        let (d, report) =
            assert_file_matches_str("x,class\n1,a\n2,b\n3\n4,c\n5,d\n", &opts).unwrap();
        assert_eq!((d.n_rows(), report.n_skipped()), (4, 1));
        // Mixed failure modes (bad field count + non-numeric) with blank
        // lines interleaved; line numbers count the blank lines.
        let messy = "x,class\n\n1,a\nnope,b\n\n2\n3,c\n4,d\nbad,e\n5,f";
        let (d, report) = assert_file_matches_str(messy, &opts).unwrap();
        assert_eq!(d.n_rows(), 4);
        let lines: Vec<usize> = report.skipped.iter().map(|(n, _)| *n).collect();
        assert_eq!(lines, [4, 6, 9]);
    }

    #[test]
    fn one_skip_cap_spans_the_whole_file() {
        // Two malformed rows far apart; a budget of 1 aborts on the second.
        let text = "x,class\n1\n2,a\n3\n4,b\n";
        let opts = CsvOptions {
            types: Some(vec![AttrType::Numeric]),
            on_error: RowPolicy::Skip { max: 1 },
            ..Default::default()
        };
        let err = assert_file_matches_str(text, &opts).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("skip limit"), "{err}");
        // With budget 2 the same file loads.
        let opts2 = CsvOptions {
            on_error: RowPolicy::Skip { max: 2 },
            ..opts
        };
        let (d, report) = assert_file_matches_str(text, &opts2).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(report.n_skipped(), 2);
    }

    /// Loads `bytes` from a file, which unlike a `&str` need not be UTF-8.
    fn load_bytes(bytes: &[u8], opts: &CsvOptions) -> Result<(Dataset, LoadReport), DataError> {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("pnr_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bytes_{}_{case}.csv", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let loaded = read_csv_with_report(&path, opts);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_malformed_row() {
        // Line 3 holds "café" in Latin-1: 0xE9 is no UTF-8 sequence.
        let text = b"x,k,class\n1,a,p\n2,caf\xe9,n\n3,b,p\n";
        let typed = Some(vec![AttrType::Numeric, AttrType::Categorical]);
        for types in [typed, None] {
            let skip = CsvOptions {
                types: types.clone(),
                on_error: RowPolicy::Skip { max: 10 },
                ..Default::default()
            };
            let (d, report) = load_bytes(text, &skip).unwrap();
            assert_eq!(d.n_rows(), 2, "{types:?}");
            assert_eq!(d.schema().attr(0).ty, AttrType::Numeric, "{types:?}");
            let dict: Vec<&str> = d.schema().attr(1).dict.iter().map(|(_, v)| v).collect();
            assert_eq!(dict, ["a", "b"]);
            assert_eq!(report.skipped.len(), 1);
            assert_eq!(report.skipped[0].0, 3);
            assert!(report.skipped[0].1.contains("UTF-8"), "{report:?}");

            let fail = CsvOptions {
                on_error: RowPolicy::Fail,
                ..skip
            };
            let err = load_bytes(text, &fail).unwrap_err();
            assert!(matches!(err, DataError::Csv { line: 3, .. }), "{err}");
            assert!(err.to_string().starts_with("csv line 3: "), "{err}");
        }
        // A header that is not UTF-8 is a header error at its own line.
        let err = load_bytes(b"\nx,caf\xe9,class\n1,a,p\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 2, .. }), "{err}");
    }

    #[test]
    fn header_rows_split_composes_to_whole_render() {
        let text = "x,k,class\n1,a,c0\n2,b,c1\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        let composed = format!(
            "{}{}",
            write_csv_header_string(&d, ','),
            write_csv_rows_string(&d, ',')
        );
        assert_eq!(composed, write_csv_string(&d, ','));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pnr_data_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let text = "x,class\n1,a\n2,b\n";
        let d = read_csv_str(text, &CsvOptions::default()).unwrap();
        write_csv(&d, &path, ',').unwrap();
        let d2 = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(d2.n_rows(), 2);
        std::fs::remove_file(&path).ok();
    }
}
