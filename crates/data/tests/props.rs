//! Property-based tests for the dataset substrate.

use pnr_data::{
    read_csv_str, read_csv_str_with_report, read_csv_with_report, stratify_weights,
    write_csv_string, AttrType, CsvOptions, DataError, Dataset, DatasetBuilder, LoadReport,
    RowPolicy, RowSet, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    fn rowset_mask_round_trips(a in rowset_strategy(60)) {
        let mask = a.mask(60);
        let back: RowSet = (0..60u32).filter(|&r| mask[r as usize]).collect();
        prop_assert_eq!(back, a);
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

/// A random small typed table rendered by `write_csv_string`, then damaged
/// by corruptions chosen by `seed`: a field dropped or added, a numeric
/// field replaced by a word or a non-finite number, blank lines inserted,
/// `\r\n` endings, no trailing newline, or the text cut off mid-line. The
/// header line itself is never damaged. Returns the text and the types the
/// table was rendered with.
fn malformed_csv(seed: u64) -> (String, Vec<AttrType>) {
    let mut rng = StdRng::seed_from_u64(seed);
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
                    Value::cat(["tcp", "udp", "7", "icmp"][rng.gen_range(0..4usize)])
                }
            })
            .collect();
        b.push_row(&row, ["n", "p"][rng.gen_range(0..2usize)], 1.0)
            .unwrap();
    }
    let mut lines: Vec<String> = write_csv_string(&b.finish(), ',')
        .lines()
        .map(str::to_string)
        .collect();
    let numeric: Vec<usize> = (0..types.len())
        .filter(|&a| types[a] == AttrType::Numeric)
        .collect();
    for _ in 0..rng.gen_range(0..5usize) {
        if lines.len() < 2 {
            break;
        }
        let i = rng.gen_range(1..lines.len());
        let mut fields: Vec<&str> = lines[i].split(',').collect();
        match rng.gen_range(0..3u32) {
            0 => {
                fields.remove(rng.gen_range(0..fields.len()));
            }
            1 => fields.insert(rng.gen_range(0..=fields.len()), "extra"),
            _ => {
                if let Some(&a) = numeric.get(rng.gen_range(0..numeric.len().max(1))) {
                    if a < fields.len() {
                        fields[a] = ["oops", "NaN", "inf", "1e999"][rng.gen_range(0..4usize)];
                    }
                }
            }
        }
        lines[i] = fields.join(",");
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
        let cut = rng.gen_range(header_end.min(text.len())..=text.len());
        text.truncate(cut);
    }
    (text, types)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_csv_is_quarantined_row_by_row_in_file_order(
        seed in any::<u64>(),
        explicit_types in prop::bool::ANY,
    ) {
        let (text, types) = malformed_csv(seed);
        let skip = CsvOptions {
            types: explicit_types.then_some(types),
            on_error: RowPolicy::Skip { max: usize::MAX },
            ..CsvOptions::default()
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

        let path = std::env::temp_dir().join(format!(
            "pnr_data_props_{}_{seed:016x}_{explicit_types}.csv",
            std::process::id()
        ));
        std::fs::write(&path, &text).unwrap();
        let from_file = read_csv_with_report(&path, &skip);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(outcome(&from_file), outcome(&loaded), "text {:?}", text);

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
}
