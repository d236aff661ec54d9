//! Out-of-core training, end to end: a kddsim dataset is streamed to CSV
//! chunk by chunk and read back through the streaming CSV reader, which
//! holds one line of text at a time. The streamed file must equal the
//! one-shot render of the same dataset byte for byte, and a full P/N fit
//! over the file must be **byte-identical** (as a rendered model artifact)
//! to a fit over that render loaded from memory. This pins the whole
//! out-of-core contract: streaming generation, streaming parse, and the fit
//! pipeline on top.

use pnr_core::{ModelArtifact, PnruleLearner, PnruleParams};
use pnr_data::{
    read_csv_str_with_report, read_csv_with_report, write_csv_string, CsvOptions, Dataset,
};
use pnr_kddsim::{generate_train, MixStream};
use std::io::Write;
use std::path::PathBuf;

const N_ROWS: usize = 6_000;
const SEED: u64 = 1234;
const GEN_CHUNK: usize = 512;

/// Streams `N_ROWS` kddsim records to a CSV file without ever holding the
/// full dataset, returning the path and the attribute types, so the load
/// needs no inference pass.
fn stream_to_csv(name: &str) -> (PathBuf, CsvOptions) {
    let path = std::env::temp_dir().join(format!("pnr_ooc_{name}_{}.csv", std::process::id()));
    let mut stream = MixStream::train(N_ROWS, SEED);
    let mut file = std::fs::File::create(&path).expect("create csv");
    let mut first = true;
    let mut types = None;
    while let Some(chunk) = stream.next_chunk(GEN_CHUNK) {
        if first {
            file.write_all(pnr_data::write_csv_header_string(&chunk, ',').as_bytes())
                .unwrap();
            types = Some(
                (0..chunk.n_attrs())
                    .map(|a| chunk.schema().attr(a).ty)
                    .collect::<Vec<_>>(),
            );
            first = false;
        }
        file.write_all(pnr_data::write_csv_rows_string(&chunk, ',').as_bytes())
            .unwrap();
    }
    let opts = CsvOptions {
        types,
        ..CsvOptions::default()
    };
    (path, opts)
}

fn artifact_string(data: &Dataset, target: &str, params: &PnruleParams) -> String {
    let code = data.class_code(target).expect("target class present");
    let learner = PnruleLearner::new(params.clone());
    let (model, report) = learner.fit_with_report(data, code);
    ModelArtifact::new(model, params.clone(), report, data.schema().clone())
        .expect("artifact validates")
        .to_file_string()
        .expect("artifact renders")
}

#[test]
fn streamed_csv_fit_matches_in_memory_fit() {
    let (path, opts) = stream_to_csv("fit");
    let text = write_csv_string(&generate_train(N_ROWS, SEED), ',');
    let streamed_bytes = std::fs::read(&path).expect("read streamed csv");
    assert!(
        streamed_bytes == text.as_bytes(),
        "the streamed CSV must equal the one-shot render byte for byte"
    );
    let (streamed, streamed_report) = read_csv_with_report(&path, &opts).expect("file load");
    let (whole, whole_report) = read_csv_str_with_report(&text, &opts).expect("text load");
    assert_eq!(streamed.n_rows(), N_ROWS);
    assert_eq!(whole.n_rows(), N_ROWS);
    assert_eq!(streamed_report.n_skipped(), 0);
    assert_eq!(whole_report.n_skipped(), 0);
    assert_eq!(
        streamed.schema().fingerprint(),
        whole.schema().fingerprint(),
        "streamed dictionary interning must reproduce the in-memory codes"
    );

    // A rare class exercises both phases; default params keep the fit
    // small enough for a debug-profile test.
    let params = PnruleParams::default();
    for target in ["probe", "dos"] {
        assert_eq!(
            artifact_string(&streamed, target, &params),
            artifact_string(&whole, target, &params),
            "fit over the streamed file diverged for target {target}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn streamed_csv_fit_survives_kill_and_resumes_identically() {
    // The full out-of-core story in one test: stream-generate, stream-load,
    // then kill the fit after its first checkpoint and resume to the same
    // bytes the uninterrupted fit produces.
    use pnr_core::FitCheckpointStore;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (path, opts) = stream_to_csv("resume");
    let (data, _) = read_csv_with_report(&path, &opts).expect("file load");
    let params = PnruleParams::default();
    let target = data.class_code("probe").expect("probe class");
    let learner = PnruleLearner::new(params.clone());

    let (want_model, want_report) = learner.fit_with_report(&data, target);
    let want = ModelArtifact::new(
        want_model,
        params.clone(),
        want_report,
        data.schema().clone(),
    )
    .unwrap()
    .to_file_string()
    .unwrap();

    let dir = std::env::temp_dir().join(format!("pnr_ooc_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let killer = FitCheckpointStore::new(&dir, true).with_kill_after(1);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        learner.fit_checkpointed(&data, target, &killer)
    }))
    .is_err();
    assert!(crashed, "the crash drill must trip after the first write");

    let resumed = FitCheckpointStore::new(&dir, true);
    let (model, report) = learner.fit_checkpointed(&data, target, &resumed);
    let got = ModelArtifact::new(model, params.clone(), report, data.schema().clone())
        .unwrap()
        .to_file_string()
        .unwrap();
    assert_eq!(got, want, "resumed out-of-core fit diverged");

    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_file(path).ok();
}
