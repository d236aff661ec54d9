//! End-to-end drift and corruption checks on the serving binaries:
//! `predict` never panics on drifted CSV, follows the unknown-value
//! policies exactly, reports counters matching the injected fault
//! counts, and refuses corrupted artifacts with a `ChecksumMismatch`
//! line and a non-zero exit; `inspect` and `kdd_csv` reject bad names
//! with exit code 2 and a list of valid spellings.

use pnr_core::{ModelArtifact, PnruleLearner, PnruleParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnr_predict_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny dos-vs-rest model on the KDD simulation and saves it as
/// an artifact under `dir`.
fn make_artifact(dir: &Path) -> PathBuf {
    let train = pnr_kddsim::generate_train(2_000, 7);
    let target = train.class_code("dos").unwrap();
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact = ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
    let path = dir.join("dos.artifact");
    artifact.save(&path).unwrap();
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "predict" => env!("CARGO_BIN_EXE_predict"),
        "kdd_csv" => env!("CARGO_BIN_EXE_kdd_csv"),
        "inspect" => env!("CARGO_BIN_EXE_inspect"),
        other => panic!("unknown binary {other}"),
    };
    Command::new(exe).args(args).output().unwrap()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn predict_scores_a_clean_generated_csv() {
    let dir = temp_dir("clean");
    let artifact = make_artifact(&dir);
    let csv = dir.join("in.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "40",
            "--seed",
            "9",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let records: Vec<&str> = stdout.lines().collect();
    assert_eq!(records.len(), 40, "one NDJSON object per record");
    for line in &records {
        assert!(line.contains("\"score\":"), "{line}");
        assert!(line.contains("\"decision\":"), "{line}");
    }
    let stderr = stderr_of(&out);
    assert!(stderr.contains("loaded artifact: format v1"), "{stderr}");
    // the generated file carries a trailing `class` column the model
    // never trained on — reconciliation must shrug it off
    assert!(stderr.contains("1 extra"), "{stderr}");
    assert!(stderr.contains("rows_scored=40"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_tolerates_reordered_and_dropped_columns() {
    let dir = temp_dir("drift");
    let artifact = make_artifact(&dir);
    // Reorder columns and drop most of them; with `--missing default`
    // the absent attributes become unknown values, not an error.
    let csv = dir.join("drifted.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "25",
            "--seed",
            "11",
            "--columns",
            "service,src_bytes,class,count",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Default (reject) missing-column policy: a typed SchemaMismatch,
    // exit 1, no panic.
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("SchemaMismatch"),
        "{}",
        stderr_of(&out)
    );

    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
            "--missing",
            "default",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(stdout_of(&out).lines().count(), 25);
    assert!(
        stderr_of(&out).contains("rows_scored=25"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Patches field `column` of data row `row` (0-based) in CSV `text`.
fn patch_field(text: &str, row: usize, column: &str, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let col = lines[0]
        .split(',')
        .position(|h| h == column)
        .unwrap_or_else(|| panic!("no column {column}"));
    let mut fields: Vec<&str> = lines[row + 1].split(',').collect();
    fields[col] = value;
    lines[row + 1] = fields.join(",");
    lines.join("\n") + "\n"
}

#[test]
fn predict_policies_pin_fault_behavior_and_counters() {
    let dir = temp_dir("policies");
    let artifact = make_artifact(&dir);
    let csv = dir.join("faults.csv");
    let out = run(
        "kdd_csv",
        &["--rows", "5", "--seed", "3", "--out", csv.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // Inject a known fault census into the clean file: one unseen
    // category (row 1), one NaN numeric (row 2), one unparsable numeric
    // (row 3); rows 0 and 4 stay clean.
    let text = std::fs::read_to_string(&csv).unwrap();
    let text = patch_field(&text, 1, "service", "quic-v2");
    let text = patch_field(&text, 2, "src_bytes", "NaN");
    let text = patch_field(&text, 3, "src_bytes", "wide");
    std::fs::write(&csv, text).unwrap();
    let model = artifact.to_str().unwrap();
    let input = csv.to_str().unwrap();
    let base = ["--model", model, "--input", input];

    // condition-false (default): every parseable row scores; the
    // unparsable numeric is structurally quarantined.
    let out = run("predict", &base);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=4"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=1"), "{stderr}");
    assert!(stderr.contains("unseen_category_hits=1"), "{stderr}");
    assert!(stderr.contains("nan_numeric_hits=1"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(stdout.lines().count(), 5);
    assert!(
        stdout
            .lines()
            .nth(3)
            .unwrap()
            .contains("\"kind\":\"structural\""),
        "{stdout}"
    );

    // abstain: the faulted rows still count as scored but abstain.
    let out = run("predict", &[&base[..], &["--unknown", "abstain"]].concat());
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=4"), "{stderr}");
    assert!(stderr.contains("2 abstained"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.contains("\"abstained\":true"))
            .count(),
        2,
        "{stdout}"
    );

    // reject: the faulted rows become typed per-record errors.
    let out = run("predict", &[&base[..], &["--unknown", "reject"]].concat());
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=2"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=3"), "{stderr}");
    assert!(stderr.contains("3 not scored"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.contains("\"kind\":\"unknown-rejected\""))
            .count(),
        2,
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_writes_valid_ndjson_when_a_quarantined_field_holds_control_characters() {
    let dir = temp_dir("escape");
    let artifact = make_artifact(&dir);
    let csv = dir.join("hostile.csv");
    let out = run(
        "kdd_csv",
        &["--rows", "4", "--seed", "5", "--out", csv.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // Each field is unparsable as a number, so its row is quarantined and
    // the error text echoes the field: a control character, a
    // non-printable (soft hyphen) and the JSON metacharacters; row 3
    // stays clean.
    let hostile = ["4.9\u{1}", "4\u{ad}9", "a\"b\\c\td"];
    let mut text = std::fs::read_to_string(&csv).unwrap();
    for (row, field) in hostile.iter().enumerate() {
        text = patch_field(&text, row, "duration", field);
    }
    std::fs::write(&csv, text).unwrap();
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let records: Vec<serde_json::Value> = stdout
        .lines()
        .map(|line| serde_json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert_eq!(records.len(), 4, "{stdout}");
    for (record, field) in records.iter().zip(hostile) {
        let Some(serde_json::Value::Str(error)) = record.get("error") else {
            panic!("expected a quarantined row, got {record:?}");
        };
        assert!(error.contains(&format!("`{field}`")), "{error}");
    }
    assert!(records[3].get("score").is_some(), "{:?}", records[3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_quarantines_a_data_line_that_is_not_utf8() {
    let dir = temp_dir("latin1");
    let artifact = make_artifact(&dir);
    let csv = dir.join("clean.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "5",
            "--test",
            "--seed",
            "4",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // Row 2's `service` field gains a Latin-1 `é`: 0xE9 is no UTF-8
    // sequence, so that line cannot be decoded.
    let text = std::fs::read_to_string(&csv).unwrap();
    let service = text
        .lines()
        .next()
        .unwrap()
        .split(',')
        .position(|h| h == "service")
        .unwrap();
    let mut bytes = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for (c, field) in line.split(',').enumerate() {
            if c > 0 {
                bytes.push(b',');
            }
            bytes.extend_from_slice(field.as_bytes());
            if (n, c) == (3, service) {
                bytes.push(0xE9);
            }
        }
        bytes.push(b'\n');
    }
    let latin1 = dir.join("latin1.csv");
    std::fs::write(&latin1, &bytes).unwrap();
    let model = artifact.to_str().unwrap();

    let clean = run(
        "predict",
        &["--model", model, "--input", csv.to_str().unwrap()],
    );
    assert!(clean.status.success(), "{}", stderr_of(&clean));
    let out = run(
        "predict",
        &["--model", model, "--input", latin1.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=4"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=1"), "{stderr}");
    assert!(stderr.contains("1 not scored"), "{stderr}");
    // Every other row is scored exactly as in the clean file.
    let (stdout, clean_stdout) = (stdout_of(&out), stdout_of(&clean));
    let records: Vec<&str> = stdout.lines().collect();
    let clean_records: Vec<&str> = clean_stdout.lines().collect();
    assert_eq!(records.len(), 5, "{stdout}");
    for (row, (got, want)) in records.iter().zip(&clean_records).enumerate() {
        if row != 2 {
            assert_eq!(got, want, "row {row}");
        }
    }
    let record = serde_json::parse(records[2]).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    assert_eq!(record.get("row"), Some(&serde_json::Value::U64(2)));
    let Some(serde_json::Value::Str(error)) = record.get("error") else {
        panic!("expected a quarantined row, got {record:?}");
    };
    assert!(error.starts_with("Structural: "), "{error}");
    assert!(error.contains("UTF-8"), "{error}");
    assert_eq!(
        record.get("kind"),
        Some(&serde_json::Value::Str("structural".into()))
    );

    // A header that is not UTF-8 is still no usable input: exit 1.
    let mut bad_header = vec![0xE9];
    bad_header.extend_from_slice(text.as_bytes());
    std::fs::write(&latin1, &bad_header).unwrap();
    let out = run(
        "predict",
        &["--model", model, "--input", latin1.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("header is not valid UTF-8"),
        "{}",
        stderr_of(&out)
    );
    assert!(stdout_of(&out).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_takes_the_header_from_the_first_non_blank_line() {
    let dir = temp_dir("blank_first");
    let artifact = make_artifact(&dir);
    let csv = dir.join("clean.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "5",
            "--test",
            "--seed",
            "4",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // Blank lines before the header, as the CSV loader skips them: an
    // empty line, and one of whitespace ending in `\r\n`.
    let text = std::fs::read_to_string(&csv).unwrap();
    let blank_first = dir.join("blank_first.csv");
    std::fs::write(&blank_first, format!("\n \t\r\n{text}")).unwrap();
    let model = artifact.to_str().unwrap();

    let clean = run(
        "predict",
        &["--model", model, "--input", csv.to_str().unwrap()],
    );
    assert!(clean.status.success(), "{}", stderr_of(&clean));
    let out = run(
        "predict",
        &["--model", model, "--input", blank_first.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_eq!(stdout_of(&out).lines().count(), 5, "{}", stdout_of(&out));
    assert_eq!(stdout_of(&out), stdout_of(&clean));

    // Blank lines alone still hold no header.
    std::fs::write(&blank_first, "\n \n").unwrap();
    let out = run(
        "predict",
        &["--model", model, "--input", blank_first.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("has no header row"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_refuses_a_corrupted_artifact() {
    let dir = temp_dir("corrupt");
    let artifact = make_artifact(&dir);

    // the clean copy verifies...
    let out = run(
        "predict",
        &["--model", artifact.to_str().unwrap(), "--verify-only"],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // ...the corrupted copy does not, with a greppable typed error
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let corrupted = dir.join("corrupted.artifact");
    std::fs::write(&corrupted, &bytes).unwrap();
    let out = run(
        "predict",
        &["--model", corrupted.to_str().unwrap(), "--verify-only"],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("ChecksumMismatch"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_bad_invocation_exits_2() {
    let out = run("predict", &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("usage: predict"),
        "{}",
        stderr_of(&out)
    );
    let out = run("predict", &["--model", "m", "--unknown", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn inspect_lists_valid_names_on_unknown_dataset() {
    for name in ["nope", "kdd:ddos", "nsyn9", "coa7"] {
        let out = run("inspect", &[name, "--scale", "0.001"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = stderr_of(&out);
        assert!(stderr.contains("nsyn1..nsyn6"), "{name}: {stderr}");
        assert!(stderr.contains("coad1..coad4"), "{name}: {stderr}");
    }
}

#[test]
fn inspect_sizes_kdd_data_like_table6() {
    // 311_029 × 0.02 = 6220.58: `kdd_sizes` rounds it to 6221 test rows
    let out = run("inspect", &["kdd:probe", "--scale", "0.02"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let head = stdout.lines().next().unwrap_or("");
    assert!(head.starts_with("kdd:probe: train 9880 rows"), "{head}");
    assert!(head.ends_with("test 6221 rows"), "{head}");
}

#[test]
fn kdd_csv_rejects_unknown_columns_with_the_valid_list() {
    let out = run("kdd_csv", &["--columns", "src_bytes,bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("bogus"), "{stderr}");
    assert!(stderr.contains("protocol_type"), "names listed: {stderr}");
    assert!(stderr.contains("class"), "{stderr}");
}

#[test]
fn kdd_csv_fault_flags_inject_deterministically_and_report_a_census() {
    let dir = temp_dir("faults");
    let csv = dir.join("hostile.csv");
    let args = [
        "--rows",
        "300",
        "--seed",
        "5",
        "--malformed-rate",
        "0.1",
        "--drift-rate",
        "0.1",
        "--out",
        csv.to_str().unwrap(),
    ];
    let out = run("kdd_csv", &args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("fault census:"), "{stderr}");
    assert!(stderr.contains("clean)"), "{stderr}");

    // same seed, same rates: byte-identical hostile stream
    let csv2 = dir.join("hostile2.csv");
    let mut args2: Vec<&str> = args.to_vec();
    args2[9] = csv2.to_str().unwrap();
    let out = run("kdd_csv", &args2);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read(&csv).unwrap(),
        std::fs::read(&csv2).unwrap(),
        "fault injection is deterministic in the seed"
    );

    // the hostile stream drives the serving fault paths end to end:
    // predict survives it (exit 0) and quarantines/flags what the
    // injector wrote
    let artifact = make_artifact(&dir);
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let report = stderr_of(&out);
    assert_eq!(stdout_of(&out).lines().count(), 300, "one record per row");
    // every fault the census counts reaches the serving counters: a
    // truncated row keeps at least one field, so none reads as blank
    let truncated = census_count(&stderr, "truncated");
    let unparsable = census_count(&stderr, "unparsable-numeric");
    assert!(truncated > 0 && unparsable > 0, "{stderr}");
    assert_eq!(
        counter_value(&report, "rows_quarantined="),
        truncated + unparsable,
        "malformed rows quarantined: {report}"
    );
    let unseen = census_count(&stderr, "unseen-category");
    let non_finite = census_count(&stderr, "non-finite");
    assert!(unseen > 0 && non_finite > 0, "{stderr}");
    assert_eq!(counter_value(&report, "unseen_category_hits="), unseen);
    assert_eq!(counter_value(&report, "nan_numeric_hits="), non_finite);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads `<n> <kind>` from `kdd_csv`'s fault census line.
fn census_count(stderr: &str, kind: &str) -> u64 {
    let words: Vec<&str> = stderr.split_whitespace().collect();
    words
        .windows(2)
        .find(|w| w[1].trim_end_matches(',') == kind)
        .and_then(|w| w[0].parse().ok())
        .unwrap_or_else(|| panic!("no `<n> {kind}` in census: {stderr}"))
}

/// Extracts `prefix<digits>` from a serving report line.
fn counter_value(report: &str, prefix: &str) -> u64 {
    let start = report.find(prefix).map(|i| i + prefix.len());
    start
        .map(|s| {
            report[s..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no {prefix} in report: {report}"))
}

#[test]
fn kdd_csv_rejects_out_of_range_fault_rates() {
    for args in [
        ["--malformed-rate", "1.5"],
        ["--malformed-rate", "-0.1"],
        ["--drift-rate", "2"],
        ["--drift-rate", "nope"],
    ] {
        let out = run("kdd_csv", &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr_of(&out).contains("usage: kdd_csv"),
            "{}",
            stderr_of(&out)
        );
    }
}
