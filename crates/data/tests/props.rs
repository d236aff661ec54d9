//! Property-based tests for the dataset substrate, with the CSV loader's
//! oracle and wide-header checks and the line reader under read timeouts.

use pnr_data::{
    filter_members, read_csv_str, read_csv_str_with_report, read_csv_with_report, stratify_weights,
    write_csv_string, AttrType, CsvOptions, DataError, Dataset, DatasetBuilder, LineReader,
    LoadReport, RowPolicy, RowSet, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Read};
use std::str::Utf8Error;

fn rowset_strategy(max: u32) -> impl Strategy<Value = RowSet> {
    prop::collection::vec(0..max, 0..64).prop_map(RowSet::from_vec)
}

proptest! {
    #[test]
    fn rowset_from_vec_is_sorted_and_unique(rows in prop::collection::vec(0u32..100, 0..64)) {
        let s = RowSet::from_vec(rows);
        let v = s.as_slice();
        for w in v.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rowset_difference_union_partition(a in rowset_strategy(80), b in rowset_strategy(80)) {
        // (a \ b) ∪ (a ∩ b) == a
        let diff = a.difference(&b);
        let inter = a.intersection(&b);
        prop_assert_eq!(diff.union(&inter), a.clone());
        // difference and intersection are disjoint
        prop_assert!(diff.intersection(&inter).is_empty());
    }

    #[test]
    fn rowset_union_is_commutative_and_contains_both(
        a in rowset_strategy(80),
        b in rowset_strategy(80),
    ) {
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        prop_assert_eq!(&u1, &u2);
        for r in a.iter().chain(b.iter()) {
            prop_assert!(u1.contains(r));
        }
        prop_assert!(u1.len() <= a.len() + b.len());
    }

    #[test]
    fn filter_members_agrees_with_contains(
        a in rowset_strategy(200),
        source in prop::collection::vec(0u32..200, 0..300),
    ) {
        let want: Vec<u32> = source.iter().copied().filter(|&r| a.contains(r)).collect();
        prop_assert_eq!(filter_members(&source, a.as_slice(), 200), want);
    }

    #[test]
    fn csv_round_trip_preserves_everything(
        rows in prop::collection::vec((0i32..1000, 0usize..4, prop::bool::ANY), 1..40),
    ) {
        let cats = ["red", "green", "blue", "plaid"];
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        for &(x, k, pos) in &rows {
            b.push_row(
                &[Value::num(x as f64), Value::cat(cats[k])],
                if pos { "p" } else { "n" },
                1.0,
            )
            .unwrap();
        }
        let d = b.finish();
        let text = write_csv_string(&d, ',');
        let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.n_rows(), d.n_rows());
        for row in 0..d.n_rows() {
            prop_assert_eq!(back.num(0, row), d.num(0, row));
            prop_assert_eq!(back.cat_name(1, row), d.cat_name(1, row));
            prop_assert_eq!(
                back.class_name(back.label(row)),
                d.class_name(d.label(row))
            );
        }
    }

    #[test]
    fn sort_index_is_a_sorted_permutation(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for &v in &values {
            b.push_row(&[Value::num(v)], "c", 1.0).unwrap();
        }
        let d = b.finish();
        let idx = d.sort_index(0);
        // permutation
        let mut seen = vec![false; values.len()];
        for &r in idx {
            prop_assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        // sorted
        for w in idx.windows(2) {
            prop_assert!(d.num(0, w[0] as usize) <= d.num(0, w[1] as usize));
        }
    }

    #[test]
    fn stratified_weights_always_balance(n_pos in 1usize..50, n_neg in 1usize..200) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_class("pos");
        b.add_class("neg");
        for i in 0..n_pos {
            b.push_row(&[Value::num(i as f64)], "pos", 1.0).unwrap();
        }
        for i in 0..n_neg {
            b.push_row(&[Value::num(i as f64)], "neg", 1.0).unwrap();
        }
        let d = b.finish();
        let w = stratify_weights(&d, 0);
        let d2 = d.with_weights(w);
        let cw = d2.class_weights();
        prop_assert!((cw[0] - cw[1]).abs() < 1e-6 * cw[1].max(1.0));
    }

    #[test]
    fn select_rows_preserves_values(n in 2usize..60, pick in prop::collection::vec(prop::bool::ANY, 60)) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for i in 0..n {
            b.push_row(&[Value::num(i as f64 * 1.5)], "c", (i + 1) as f64).unwrap();
        }
        let d = b.finish();
        let rows: Vec<u32> = (0..n as u32).filter(|&r| pick[r as usize]).collect();
        let s = d.select_rows(&rows);
        prop_assert_eq!(s.n_rows(), rows.len());
        for (new, &old) in rows.iter().enumerate() {
            prop_assert_eq!(s.num(0, new), d.num(0, old as usize));
            prop_assert_eq!(s.weight(new), d.weight(old as usize));
        }
    }
}

/// The header's duplicate-name check is one ordered-set pass, not a scan
/// of every earlier name per name.
#[test]
fn a_wide_header_is_checked_for_duplicates_in_one_pass() {
    // 50,000 names, the last repeating the first.
    let attrs: Vec<String> = (0..49_999).map(|i| format!("a{i}")).collect();
    let attrs = attrs.join(",");
    let err = read_csv_str(&format!("{attrs},a0\n"), &CsvOptions::default()).unwrap_err();
    assert!(
        matches!(&err, DataError::DuplicateAttribute { name } if name == "a0"),
        "{err}"
    );
    let row = vec!["0"; 49_999].join(",");
    let text = format!("{attrs},class\n{row},p\n");
    let d = read_csv_str(&text, &CsvOptions::default()).unwrap();
    assert_eq!((d.n_attrs(), d.n_rows()), (49_999, 1));
}

/// How a damaged numeric field may read, in three equally likely groups:
/// not a number, a finite number spelled as `f64` parsing also accepts it,
/// and a number that is not finite.
const NUMBER_SPELLINGS: [&[&str]; 3] = [
    &["oops", ""],
    &["+5", ".5", "5.", "-0", "1e3"],
    &["inf", "NaN", "1e999"],
];

/// A random small typed table rendered by `write_csv_string` with `,`, `;`
/// or the two-byte `¦` as separator, then damaged by corruptions chosen by
/// `seed`: a field dropped, added or emptied, a row's numeric fields
/// replaced by [`NUMBER_SPELLINGS`], fields padded with ASCII or Unicode
/// whitespace (`\u{a0}`, `\u{3000}`), blank lines inserted, `\r\n`
/// endings, no trailing newline, or the text cut off mid-line. Categorical
/// values include non-ASCII ones (`é`, `中`). The header line itself is
/// never damaged. Returns the text, the types the table was rendered with
/// and the separator.
fn malformed_csv(seed: u64) -> (String, Vec<AttrType>, char) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sep = [',', ';', '¦'][rng.gen_range(0..3usize)];
    let types: Vec<AttrType> = (0..rng.gen_range(1..=3usize))
        .map(|_| {
            if rng.gen_bool(0.5) {
                AttrType::Numeric
            } else {
                AttrType::Categorical
            }
        })
        .collect();
    let mut b = DatasetBuilder::new();
    for (a, ty) in types.iter().enumerate() {
        b.add_attribute(format!("a{a}"), *ty);
    }
    for _ in 0..rng.gen_range(0..12usize) {
        let row: Vec<Value> = types
            .iter()
            .map(|ty| match ty {
                AttrType::Numeric => Value::num(f64::from(rng.gen_range(-800..800i32)) / 8.0),
                AttrType::Categorical => {
                    Value::cat(["tcp", "udp", "7", "icmp", "é", "中"][rng.gen_range(0..6usize)])
                }
            })
            .collect();
        b.push_row(&row, ["n", "p"][rng.gen_range(0..2usize)], 1.0)
            .unwrap();
    }
    let mut lines: Vec<String> = write_csv_string(&b.finish(), sep)
        .lines()
        .map(str::to_string)
        .collect();
    let numeric: Vec<usize> = (0..types.len())
        .filter(|&a| types[a] == AttrType::Numeric)
        .collect();
    let sep_str = sep.to_string();
    for _ in 0..rng.gen_range(0..7usize) {
        if lines.len() < 2 {
            break;
        }
        let i = rng.gen_range(1..lines.len());
        let mut fields: Vec<String> = lines[i].split(sep).map(str::to_string).collect();
        let f = rng.gen_range(0..fields.len());
        match rng.gen_range(0..5u32) {
            0 => {
                fields.remove(f);
            }
            1 => fields.insert(rng.gen_range(0..=fields.len()), "extra".into()),
            2 => fields[f].clear(),
            3 => {
                // Every numeric field, so that one row can hold a
                // non-finite number before an unparsable one.
                let n_fields = fields.len();
                for &a in numeric.iter().filter(|&&a| a < n_fields) {
                    let group = NUMBER_SPELLINGS[rng.gen_range(0..3usize)];
                    fields[a] = group[rng.gen_range(0..group.len())].into();
                }
            }
            _ => {
                // Whitespace at a field's edge, which the loader trims away.
                let pad = [" ", "\u{a0}", "\u{3000}"][rng.gen_range(0..3usize)];
                if rng.gen_bool(0.5) {
                    fields[f].insert_str(0, pad);
                } else {
                    fields[f].push_str(pad);
                }
            }
        }
        lines[i] = fields.join(&sep_str);
    }
    // Blank lines may land anywhere, before the header included.
    for _ in 0..rng.gen_range(0..3usize) {
        let blank = ["", "  ", "\t"][rng.gen_range(0..3usize)];
        lines.insert(rng.gen_range(0..=lines.len()), blank.to_string());
    }
    let ending = if rng.gen_bool(0.3) { "\r\n" } else { "\n" };
    let header = lines.iter().position(|l| !l.trim().is_empty()).unwrap();
    let header_end: usize = lines[..=header]
        .iter()
        .map(|l| l.len() + ending.len())
        .sum();
    let mut text: String = lines.iter().map(|l| format!("{l}{ending}")).collect();
    if rng.gen_bool(0.25) {
        text.truncate(text.len() - ending.len());
    }
    if rng.gen_bool(0.25) {
        let mut cut = rng.gen_range(header_end.min(text.len())..=text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    (text, types, sep)
}

/// A `malformed_csv` text's file copy with a Latin-1 `é` (the byte 0xE9,
/// which no UTF-8 sequence holds) written into one data row chosen by
/// `seed`, so that row is not UTF-8. Also returns the text with that row
/// left blank, and the row's 1-based line number with the reason its load
/// gives. `None` when the text has no data row.
fn latin1_row(text: &str, seed: u64) -> Option<(Vec<u8>, String, (usize, String))> {
    let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let data: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].trim().is_empty())
        .skip(1)
        .collect();
    let row = *data.get(rng.gen_range(0..data.len().max(1)))?;
    let body = match lines[row].strip_suffix('\n') {
        Some(l) => l.strip_suffix('\r').unwrap_or(l),
        None => lines[row],
    };
    let mut at = rng.gen_range(0..=body.len());
    while !body.is_char_boundary(at) {
        at -= 1;
    }
    let mut bad = body.as_bytes().to_vec();
    bad.insert(at, 0xE9);
    let reason = format!(
        "not valid UTF-8: {}",
        std::str::from_utf8(&bad).unwrap_err()
    );
    bad.extend_from_slice(&lines[row].as_bytes()[body.len()..]);
    let mut file = Vec::new();
    let mut blanked = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == row {
            file.extend_from_slice(&bad);
            blanked.push_str(&line[body.len()..]);
        } else {
            file.extend_from_slice(line.as_bytes());
            blanked.push_str(line);
        }
    }
    Some((file, blanked, (row + 1, reason)))
}

/// A load's outcome in comparable form: the dataset as JSON (exact for
/// every `f64`, dictionary order included) with its report, or the error
/// message.
fn outcome(
    load: &Result<(Dataset, LoadReport), DataError>,
) -> Result<(String, LoadReport), String> {
    match load {
        Ok((d, report)) => Ok((serde_json::to_string(d).unwrap(), report.clone())),
        Err(e) => Err(e.to_string()),
    }
}

/// The CSV loader as it was before lines were read as bytes, split into
/// reused spans and appended to the columns in one pass, copied verbatim:
/// the oracle for `one_pass_loader_agrees_with_the_line_by_line_oracle`.
/// It splits each line into a fresh `Vec<&str>`, builds a `Vec<Value>` per
/// row and pushes it with `DatasetBuilder::push_row`.
mod oracle {
    use pnr_data::{
        AttrType, CsvOptions, DataError, Dataset, DatasetBuilder, LoadReport, RowPolicy, Value,
    };
    use std::io::BufRead;

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

    /// The one loader behind every `read_csv*` function. `open` yields a fresh
    /// reader over the same bytes on each call: one for the load, plus one
    /// before it for the inference pass when [`CsvOptions::types`] is `None`.
    /// Rows are split once, pushed into one builder and quarantined into one
    /// report, all in file order.
    pub fn load<R: BufRead>(
        open: impl Fn() -> Result<R, DataError>,
        opts: &CsvOptions,
    ) -> Result<(Dataset, LoadReport), DataError> {
        let sep = opts.separator;
        let types = match &opts.types {
            Some(types) => types.clone(),
            None => infer_types(open()?, sep)?,
        };
        let mut lines = Lines::new(open()?);
        let names = lines.header(sep)?;
        let n_attrs = names.len() - 1;
        if types.len() != n_attrs {
            return Err(DataError::Csv {
                line: 1,
                message: format!("{} types supplied for {} attributes", types.len(), n_attrs),
            });
        }
        let mut b = DatasetBuilder::new();
        for (name, ty) in names[..n_attrs].iter().zip(&types) {
            b.add_attribute(name, *ty);
        }
        let mut report = LoadReport::default();
        while let Some((lineno, line)) = lines.next_line()? {
            let fields: Vec<&str> = line.split(sep).map(str::trim).collect();
            if let Err(message) = push_record(&mut b, &types, &fields) {
                quarantine(&opts.on_error, &mut report, lineno, message)?;
            }
        }
        Ok((b.finish(), report))
    }

    /// Appends one split record to `b`, or says why it is malformed: a wrong
    /// field count, an unparsable numeric field, or a row the builder rejects.
    fn push_record(
        b: &mut DatasetBuilder,
        types: &[AttrType],
        fields: &[&str],
    ) -> Result<(), String> {
        let n_attrs = types.len();
        if fields.len() != n_attrs + 1 {
            return Err(format!(
                "expected {} fields, got {}",
                n_attrs + 1,
                fields.len()
            ));
        }
        let mut row = Vec::with_capacity(n_attrs);
        for (a, (field, ty)) in fields.iter().zip(types).enumerate() {
            row.push(match ty {
                AttrType::Numeric => Value::Num(
                    field
                        .parse()
                        .map_err(|_| format!("field {a} ({field:?}) is not numeric"))?,
                ),
                AttrType::Categorical => Value::Cat(field),
            });
        }
        b.push_row(&row, fields[n_attrs], 1.0)
            .map_err(|e| e.to_string())
    }

    /// The inference pass: an attribute is numeric iff at least one row has
    /// the right field count and every such row's field parses as a finite
    /// `f64`. Rows with a wrong field count are left to the load to report.
    fn infer_types(reader: impl BufRead, sep: char) -> Result<Vec<AttrType>, DataError> {
        let mut lines = Lines::new(reader);
        let n_fields = lines.header(sep)?.len();
        let mut numeric = vec![true; n_fields - 1];
        let mut any_row = false;
        while let Some((_, line)) = lines.next_line()? {
            let fields: Vec<&str> = line.split(sep).map(str::trim).collect();
            if fields.len() != n_fields {
                continue;
            }
            any_row = true;
            for (is_numeric, field) in numeric.iter_mut().zip(&fields) {
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

    /// The non-blank lines of a CSV source, read one at a time into one reused
    /// buffer.
    struct Lines<R> {
        reader: R,
        buf: String,
        /// 1-based physical number of the line last read.
        lineno: usize,
    }

    impl<R: BufRead> Lines<R> {
        fn new(reader: R) -> Self {
            Lines {
                reader,
                buf: String::new(),
                lineno: 0,
            }
        }

        /// The next non-blank line with its 1-based physical line number, its
        /// `\n` or `\r\n` ending removed as [`str::lines`] removes it, or `None`
        /// at the end of the source. A last line without a newline counts.
        fn next_line(&mut self) -> Result<Option<(usize, &str)>, DataError> {
            loop {
                self.buf.clear();
                if self.reader.read_line(&mut self.buf)? == 0 {
                    return Ok(None);
                }
                self.lineno += 1;
                if !self.buf.trim().is_empty() {
                    let line = match self.buf.strip_suffix('\n') {
                        Some(l) => l.strip_suffix('\r').unwrap_or(l),
                        None => &self.buf,
                    };
                    return Ok(Some((self.lineno, line)));
                }
            }
        }

        /// Reads the header, the first non-blank line, and checks it: at least
        /// one attribute and the class column, and no name twice. Returns the
        /// trimmed column names, class column last.
        fn header(&mut self, sep: char) -> Result<Vec<String>, DataError> {
            let Some((_, header)) = self.next_line()? else {
                return Err(DataError::Csv {
                    line: 1,
                    message: "missing header".into(),
                });
            };
            let names: Vec<String> = header.split(sep).map(|s| s.trim().to_string()).collect();
            if names.len() < 2 {
                return Err(DataError::Csv {
                    line: 1,
                    message: "header needs at least one attribute and a class column".into(),
                });
            }
            for (i, name) in names.iter().enumerate() {
                if names[..i].contains(name) {
                    return Err(DataError::DuplicateAttribute { name: name.clone() });
                }
            }
            Ok(names)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_csv_is_quarantined_row_by_row_in_file_order(
        seed in any::<u64>(),
        explicit_types in prop::bool::ANY,
    ) {
        let (text, types, separator) = malformed_csv(seed);
        let skip = CsvOptions {
            separator,
            types: explicit_types.then_some(types),
            on_error: RowPolicy::Skip { max: usize::MAX },
        };
        let loaded = read_csv_str_with_report(&text, &skip);
        let (d, report) = match &loaded {
            Ok(ok) => ok,
            Err(e) => return Err(TestCaseError::fail(format!("{e} on {text:?}"))),
        };

        let data_lines = text.lines().filter(|l| !l.trim().is_empty()).count() - 1;
        prop_assert_eq!(d.n_rows() + report.n_skipped(), data_lines, "text {:?}", text);
        for w in report.skipped.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "report out of file order: {:?}", report);
        }

        // The file copy loads as the text with its Latin-1 row left blank,
        // plus that row quarantined in its place in the report.
        let (file, expected) = match latin1_row(&text, seed) {
            Some((file, blanked, bad_row)) => {
                let mut expected = read_csv_str_with_report(&blanked, &skip);
                if let Ok((_, report)) = &mut expected {
                    let at = report.skipped.partition_point(|(line, _)| *line < bad_row.0);
                    report.skipped.insert(at, bad_row);
                }
                (file, expected)
            }
            None => (text.clone().into_bytes(), read_csv_str_with_report(&text, &skip)),
        };
        let path = std::env::temp_dir().join(format!(
            "pnr_data_props_{}_{seed:016x}_{explicit_types}.csv",
            std::process::id()
        ));
        std::fs::write(&path, &file).unwrap();
        let from_file = read_csv_with_report(&path, &skip);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(outcome(&from_file), outcome(&expected), "file {:?}", String::from_utf8_lossy(&file));

        let fail = CsvOptions { on_error: RowPolicy::Fail, ..skip };
        match (read_csv_str_with_report(&text, &fail), report.skipped.first()) {
            (Ok((strict, _)), None) => {
                prop_assert_eq!(outcome(&Ok((strict, LoadReport::default()))), outcome(&loaded));
            }
            (Err(DataError::Csv { line, message }), Some(first)) => {
                prop_assert_eq!(&(line, message), first, "text {:?}", text);
            }
            (strict, first) => {
                return Err(TestCaseError::fail(format!(
                    "Fail gave {:?} but Skip's first quarantined row is {first:?}",
                    strict.map(|(d, _)| d.n_rows())
                )));
            }
        }
    }

    #[test]
    fn one_pass_loader_agrees_with_the_line_by_line_oracle(
        seed in any::<u64>(),
        explicit_types in prop::bool::ANY,
        policy in 0..3u32,
    ) {
        let (text, types, separator) = malformed_csv(seed);
        let opts = CsvOptions {
            separator,
            types: explicit_types.then_some(types),
            on_error: match policy {
                0 => RowPolicy::Fail,
                1 => RowPolicy::Skip { max: 1 },
                _ => RowPolicy::Skip { max: usize::MAX },
            },
        };
        prop_assert_eq!(
            outcome(&read_csv_str_with_report(&text, &opts)),
            outcome(&oracle::load(|| Ok(text.as_bytes()), &opts)),
            "text {:?} with {:?}",
            text,
            opts
        );
    }
}

/// Random lines of text: ASCII, multi-byte characters, Unicode
/// whitespace, a stray `\r` and bytes that are no UTF-8 (a Latin-1 `é`,
/// `0xFF`, a lone continuation byte), with blank and whitespace-only
/// lines among them. Lines end in `\n`, `\r\n` or a bare `\r` (which ends
/// no line), and the last line may have no ending at all.
fn line_soup(rng: &mut StdRng) -> Vec<u8> {
    const SPACE: [&str; 5] = [" ", "\t", "\r", "\u{a0}", "\u{3000}"];
    const TEXT: [&[u8]; 8] = [
        b"a",
        b"7,x",
        "é".as_bytes(),
        "中".as_bytes(),
        "😀".as_bytes(),
        b"\xe9",
        b"\xff",
        b"\x80",
    ];
    let mut text = Vec::new();
    for _ in 0..rng.gen_range(0..10usize) {
        let blank = rng.gen_bool(0.3);
        for _ in 0..rng.gen_range(0..5usize) {
            if blank || rng.gen_bool(0.3) {
                text.extend_from_slice(SPACE[rng.gen_range(0..SPACE.len())].as_bytes());
            } else {
                text.extend_from_slice(TEXT[rng.gen_range(0..TEXT.len())]);
            }
        }
        text.extend_from_slice([&b"\n"[..], b"\r\n", b"\r"][rng.gen_range(0..3usize)]);
    }
    if rng.gen_bool(0.5) {
        text.extend_from_slice(TEXT[rng.gen_range(0..TEXT.len())]);
    }
    text
}

/// A stream over `bytes` that fails with `WouldBlock` or `TimedOut` each
/// time a read reaches one of `fails` (sorted byte offsets; an offset
/// listed twice fails twice), and otherwise reads up to the next one.
struct Flaky<'a> {
    bytes: &'a [u8],
    at: usize,
    fails: Vec<(usize, io::ErrorKind)>,
}

impl Read for Flaky<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut end = self.bytes.len();
        if let Some(&(offset, kind)) = self.fails.first() {
            if offset == self.at {
                self.fails.remove(0);
                return Err(kind.into());
            }
            end = offset;
        }
        let n = out.len().min(end - self.at);
        out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Every line `lines` yields as `(line number, text or why it is not
/// UTF-8)`, retrying each read that fails with `WouldBlock` or `TimedOut`.
fn read_all<R: BufRead>(mut lines: LineReader<R>) -> Vec<(usize, Result<String, Utf8Error>)> {
    let mut out = Vec::new();
    loop {
        match lines.next_line() {
            Ok(Some((n, line))) => out.push((n, line.map(str::to_string))),
            Ok(None) => return out,
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{e}"
            ),
        }
    }
}

proptest! {
    /// A read timeout at any byte, inside a character and between a `\r`
    /// and its `\n` included, loses nothing: the lines and their numbers
    /// are those of one uninterrupted read.
    #[test]
    fn line_reader_resumes_after_a_read_timeout_at_any_byte(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = line_soup(&mut rng);
        let mut fails = Vec::new();
        for offset in 0..=text.len() {
            while rng.gen_bool(0.3) {
                let kind = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut][rng.gen_range(0..2usize)];
                fails.push((offset, kind));
            }
        }
        let flaky = Flaky { bytes: &text, at: 0, fails };
        let capacity = rng.gen_range(1..=8usize);
        prop_assert_eq!(
            read_all(LineReader::new(BufReader::with_capacity(capacity, flaky))),
            read_all(LineReader::new(&text[..])),
            "text {:?}",
            String::from_utf8_lossy(&text)
        );
    }
}
