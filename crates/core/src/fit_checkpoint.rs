//! Rule-level checkpoint/resume for long fits.
//!
//! A multi-hour out-of-core fit must survive `kill -9`. Progress through a
//! fit is naturally quantised by the covering loops — one accepted rule at
//! a time — so the checkpoint granularity is **per accepted rule**: after
//! every P- or N-rule acceptance the fit persists one small JSON file
//! (through [`pnr_data::write_atomic`], like the experiment pipeline's
//! cell store), and a restarted fit replays the checkpointed rules instead
//! of re-searching them.
//!
//! # Bit-identical resume
//!
//! Resume is not merely "close": a resumed fit produces the **byte-for-byte
//! same model artifact** as the uninterrupted run. Three things make that
//! hold:
//!
//! 1. **Replay, not re-search.** Checkpointed rules carry their
//!    discovery-time [`CovStats`](pnr_rules::CovStats); the phases fold them
//!    through the exact `+=` sequence of the original loop (recall
//!    accumulation, DL trace, coverage removal), so the float state at the
//!    interruption point is reproduced bitwise.
//! 2. **Budget pre-charging.** The checkpoint records the
//!    [`BudgetTracker`](pnr_rules::BudgetTracker) candidate count at the
//!    last acceptance; the resumed fit charges it up front and replays one
//!    rule charge per seeded rule, so the tracker crosses its limits at the
//!    same points as the uninterrupted run. The **wall-clock** budget is
//!    the exception: it restarts on resume (a dead process's elapsed time
//!    is unrecoverable), so only rule/candidate budgets are replay-exact.
//! 3. **Keyed stores.** Files are named by an FNV-1a fingerprint over the
//!    fit inputs (shape, schema fingerprint, target, canonical params JSON
//!    and a labels/weights/flags/value-sample digest); the full key is
//!    stored inside the file and verified on load, so a stale checkpoint
//!    from different data or parameters falls back to a fresh fit rather
//!    than poisoning the resume.
//!
//! Searches between checkpoints are lost on a kill and simply re-run —
//! deterministically, so the loss is wall-clock time, never reproducibility.

use crate::learn::{FitReport, PnruleLearner};
use crate::model::PnruleModel;
use crate::nphase::{learn_n_rules_resumable, NRule, StopReason};
use crate::params::PnruleParams;
use crate::pphase::{learn_p_rules_resumable, PPhaseResult, PRule};
use crate::scoring::ScoreMatrix;
use pnr_data::fingerprint::Fnv1a;
use pnr_data::{Column, Dataset, RowSet};
use pnr_rules::{BudgetTracker, RuleSet, TaskView};
use pnr_telemetry::{Span, SpanKind};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one fit: everything the learned model is a function of.
/// Two fits with equal keys produce bit-identical models, so a checkpoint
/// written under this key can seed either of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitKey {
    /// Training rows.
    pub n_rows: usize,
    /// [`Schema::fingerprint`](pnr_data::Schema::fingerprint) of the
    /// training data (attribute names, types, dictionaries, classes).
    pub schema: u64,
    /// Target class code.
    pub target: u32,
    /// Canonical JSON of the learner parameters.
    pub params: String,
    /// FNV-1a digest of every row's label, weight bits and target flag,
    /// plus a bounded stride-sample of attribute values (full value
    /// hashing would cost a pass over all cells; the sample catches data
    /// swaps the label/weight fold would miss).
    pub data_digest: u64,
}

impl FitKey {
    /// The key of a fit over `data` with the given target flags and
    /// parameters.
    pub fn of(data: &Dataset, target: u32, is_pos: &[bool], params: &PnruleParams) -> FitKey {
        assert_eq!(is_pos.len(), data.n_rows());
        // PnruleParams serialization cannot fail in practice; the Debug
        // fallback keeps the key total without a panic path in library code.
        let params_json = serde_json::to_string(params).unwrap_or_else(|_| format!("{params:?}"));
        let weights = data.weights();
        let mut h = Fnv1a::new();
        for r in 0..data.n_rows() {
            h.write(&data.label(r).to_le_bytes());
            h.write(&weights[r].to_bits().to_le_bytes());
            h.write(&[u8::from(is_pos[r])]);
        }
        // Value sample: ~4096 evenly strided rows, all attributes.
        let stride = (data.n_rows() / 4096).max(1);
        for a in 0..data.n_attrs() {
            match data.column(a) {
                Column::Num(vals) => {
                    for r in (0..data.n_rows()).step_by(stride) {
                        h.write(&vals[r].to_bits().to_le_bytes());
                    }
                }
                Column::Cat(codes) => {
                    for r in (0..data.n_rows()).step_by(stride) {
                        h.write(&codes[r].to_le_bytes());
                    }
                }
            }
        }
        FitKey {
            n_rows: data.n_rows(),
            schema: data.schema().fingerprint(),
            target,
            params: params_json,
            data_digest: h.finish(),
        }
    }

    /// FNV-1a fingerprint naming this key's checkpoint file. Field
    /// separators keep adjacent fields from aliasing.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_field(&format!("{}", self.n_rows));
        h.write_field(&format!("{:016x}", self.schema));
        h.write_field(&format!("{}", self.target));
        h.write_field(&self.params);
        h.write_field(&format!("{:016x}", self.data_digest));
        h.finish()
    }
}

/// One persisted fit-in-progress: the key it belongs to plus every rule
/// accepted so far, in acceptance order, **before** any MDL truncation
/// (truncation is recomputed from the replayed DL trace on resume).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitCheckpoint {
    /// The fit this checkpoint belongs to (verified on load).
    pub key: FitKey,
    /// P-rules accepted so far.
    pub p_rules: Vec<PRule>,
    /// True once the P-phase finished; `p_covered_recall` and
    /// `p_stop_reason` are only meaningful then.
    pub p_done: bool,
    /// Recall the finished P-phase achieved (valid when `p_done`).
    pub p_covered_recall: f64,
    /// Why the finished P-phase stopped (valid when `p_done`; it cannot be
    /// recomputed without re-running the phase's final, failed search).
    pub p_stop_reason: StopReason,
    /// N-rules accepted so far (pre-truncation; only non-empty once
    /// `p_done`).
    pub n_rules: Vec<NRule>,
    /// [`BudgetTracker::candidates_charged`] at the moment this
    /// checkpoint was written (0 when the fit runs unbudgeted). Resume
    /// pre-charges this so budget limits latch at the original points.
    pub candidates_charged: u64,
}

/// A directory-backed store of fit checkpoints. A disabled store loads
/// nothing and writes nothing; [`PnruleLearner::fit_flags_with_report`]
/// runs through one, so the plain and checkpointed fit paths are the same
/// code.
#[derive(Debug)]
pub struct FitCheckpointStore {
    dir: PathBuf,
    enabled: bool,
    /// Crash drill: panic after this many successful writes (see
    /// [`Self::with_kill_after`]).
    kill_after: Option<u64>,
    writes: AtomicU64,
}

impl FitCheckpointStore {
    /// A store writing checkpoints under `dir`. With `enabled` false both
    /// [`load`](Self::load) and [`store`](Self::store) are no-ops.
    pub fn new(dir: impl AsRef<Path>, enabled: bool) -> Self {
        FitCheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            enabled,
            kill_after: None,
            writes: AtomicU64::new(0),
        }
    }

    /// A store that neither loads nor writes (the plain-fit path).
    pub fn disabled() -> Self {
        FitCheckpointStore::new(PathBuf::new(), false)
    }

    /// Whether this store persists anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Crash drill: the store panics immediately after its `n`-th
    /// successful write, *after* the file is renamed into place —
    /// the closest a test can get to `kill -9` between a checkpoint and
    /// the next unit of work. Kill-tolerance tests sweep `n` over every
    /// write position and assert the resumed model is byte-identical.
    #[must_use]
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// The checkpoint file path for `key`.
    fn path_for(&self, key: &FitKey) -> PathBuf {
        self.dir
            .join(format!("fit-{:016x}.json", key.fingerprint()))
    }

    /// Loads a checkpoint for `key`, or `None` when absent, unreadable,
    /// or stale (stored key differs — fingerprint collision, format drift
    /// or changed inputs). Any problem means "start fresh", never an
    /// error.
    pub fn load(&self, key: &FitKey) -> Option<FitCheckpoint> {
        if !self.enabled {
            return None;
        }
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        let ckpt: FitCheckpoint = serde_json::from_str(&text).ok()?;
        if ckpt.key != *key {
            return None;
        }
        Some(ckpt)
    }

    /// Persists a checkpoint atomically ([`pnr_data::write_atomic`]). IO
    /// problems are reported to stderr but never fail the fit: a
    /// checkpoint is an optimisation, not a correctness requirement.
    pub fn store(&self, ckpt: &FitCheckpoint) {
        if !self.enabled {
            return;
        }
        let json = match serde_json::to_string_pretty(ckpt) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("fit checkpoint serialization failed: {e}");
                return;
            }
        };
        let path = self.path_for(&ckpt.key);
        if let Err(e) = pnr_data::write_atomic(&path, json.as_bytes()) {
            eprintln!("fit checkpoint write failed for {}: {e}", path.display());
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.kill_after.is_some_and(|k| n >= k) {
            panic!("simulated kill -9: fit aborted after checkpoint write {n}");
        }
    }

    /// Removes the checkpoint for `key` (called when a fit completes; a
    /// finished fit must not seed the next one with an already-final rule
    /// list).
    pub fn clear(&self, key: &FitKey) {
        if self.enabled {
            std::fs::remove_file(self.path_for(key)).ok();
        }
    }
}

fn charged(budget: Option<&Arc<BudgetTracker>>) -> u64 {
    budget.map(|t| t.candidates_charged()).unwrap_or(0)
}

/// The one fit pipeline: P-phase, pooling, N-phase, scoring — shared by
/// the plain fit (disabled store) and the checkpointed fit, so the two
/// can never diverge.
pub(crate) fn run_fit(
    learner: &PnruleLearner,
    data: &Dataset,
    target: u32,
    is_pos: &[bool],
    store: &FitCheckpointStore,
) -> (PnruleModel, FitReport) {
    assert_eq!(is_pos.len(), data.n_rows());
    let params = learner.params();
    let sink = learner.sink_ref();
    let _fit_span = Span::enter(sink.as_ref(), SpanKind::Fit, "fit");

    let key = store
        .is_enabled()
        .then(|| FitKey::of(data, target, is_pos, params));
    let resume = key.as_ref().and_then(|k| store.load(k));

    let weights = data.weights();
    let view = TaskView::full(data, is_pos, weights);
    let orig_pos_total = view.pos_weight();

    // One budget tracker spans the whole fit: P-phase rules and
    // candidates spend from the same pool the N-phase draws on. On
    // resume, the checkpointed candidate spend is replayed up front so
    // limits latch at the same points as the uninterrupted run.
    let budget = params.budget.start().map(Arc::new);
    if let (Some(tracker), Some(ckpt)) = (budget.as_ref(), resume.as_ref()) {
        if ckpt.candidates_charged > 0 {
            tracker.charge_candidates(ckpt.candidates_charged);
        }
    }

    // --- P-phase: presence rules, high support first. ---
    let p_result = match &resume {
        Some(ckpt) if ckpt.p_done => {
            // The checkpoint holds the finished phase: replay its budget
            // rule charges and reuse the recorded outcome.
            if let Some(tracker) = budget.as_ref() {
                for _ in &ckpt.p_rules {
                    tracker.charge_rule();
                }
            }
            PPhaseResult {
                rules: ckpt.p_rules.clone(),
                covered_recall: ckpt.p_covered_recall,
                stop_reason: ckpt.p_stop_reason,
            }
        }
        _ => {
            let seed = resume
                .as_ref()
                .map(|ckpt| ckpt.p_rules.clone())
                .unwrap_or_default();
            let mut on_rule = |rules: &[PRule]| {
                if let Some(k) = &key {
                    store.store(&FitCheckpoint {
                        key: k.clone(),
                        p_rules: rules.to_vec(),
                        p_done: false,
                        p_covered_recall: 0.0,
                        p_stop_reason: StopReason::default(),
                        n_rules: Vec::new(),
                        candidates_charged: charged(budget.as_ref()),
                    });
                }
            };
            learn_p_rules_resumable(&view, params, budget.as_ref(), sink, seed, &mut on_rule)
        }
    };
    let n_seed = match &resume {
        Some(ckpt) if ckpt.p_done => ckpt.n_rules.clone(),
        _ => Vec::new(),
    };
    // Seal the P-phase so a kill during pooling or the first N-search
    // resumes without re-running it.
    if let Some(k) = &key {
        store.store(&FitCheckpoint {
            key: k.clone(),
            p_rules: p_result.rules.clone(),
            p_done: true,
            p_covered_recall: p_result.covered_recall,
            p_stop_reason: p_result.stop_reason,
            n_rules: n_seed.clone(),
            candidates_charged: charged(budget.as_ref()),
        });
    }
    let p_rules = RuleSet::from_rules(p_result.rules.iter().map(|p| p.rule.clone()).collect());

    // --- Pool every record the P-union covers. ---
    let pooled_rows: RowSet = (0..pnr_data::index::to_u32(data.n_rows(), "row count"))
        .filter(|&r| p_rules.any_match(data, r as usize))
        .collect();
    let covered_pos = pnr_data::ordered_sum(
        pooled_rows
            .iter()
            .filter(|&r| is_pos[r as usize])
            .map(|r| weights[r as usize]),
    );
    let pool_size = pooled_rows.len();
    let pool_total: f64 = pooled_rows.total_weight(weights);

    // --- N-phase: absence rules on the pooled false positives. ---
    let (n_rules, n_rule_stats, retained_recall, n_stop_reason, n_mdl_truncated, n_dl_trace) =
        if params.enable_n_phase && !p_rules.is_empty() {
            let flipped: Vec<bool> = is_pos.iter().map(|&p| !p).collect();
            let pooled = TaskView::over(data, pooled_rows, &flipped, weights);
            let mut on_rule = |rules: &[NRule]| {
                if let Some(k) = &key {
                    store.store(&FitCheckpoint {
                        key: k.clone(),
                        p_rules: p_result.rules.clone(),
                        p_done: true,
                        p_covered_recall: p_result.covered_recall,
                        p_stop_reason: p_result.stop_reason,
                        n_rules: rules.to_vec(),
                        candidates_charged: charged(budget.as_ref()),
                    });
                }
            };
            let n_result = learn_n_rules_resumable(
                &pooled,
                orig_pos_total,
                covered_pos,
                params,
                budget.as_ref(),
                sink,
                n_seed,
                &mut on_rule,
            );
            let stats = n_result.rules.iter().map(|n| n.stats).collect();
            (
                RuleSet::from_rules(n_result.rules.into_iter().map(|n| n.rule).collect()),
                stats,
                n_result.retained_recall,
                n_result.stop_reason,
                n_result.mdl_truncated,
                n_result.dl_trace,
            )
        } else {
            let achieved = if orig_pos_total > 0.0 {
                covered_pos / orig_pos_total
            } else {
                0.0
            };
            (
                RuleSet::new(),
                Vec::new(),
                achieved,
                StopReason::Exhausted,
                0,
                Vec::new(),
            )
        };

    // --- Scoring: judge every P×N combination on the training data. ---
    let score_matrix = ScoreMatrix::build_with_sink(
        data,
        is_pos,
        &p_rules,
        &n_rules,
        params.scoring_z_threshold,
        sink,
    );

    let report = FitReport {
        p_covered_recall: p_result.covered_recall,
        p_rule_stats: p_result.rules.iter().map(|p| p.stats).collect(),
        pool_size,
        pool_fp_weight: pool_total - covered_pos,
        n_rule_stats,
        retained_recall,
        p_stop_reason: p_result.stop_reason,
        n_stop_reason,
        n_mdl_truncated,
        n_dl_trace,
        candidates_charged: budget.as_ref().map(|t| t.candidates_charged()),
    };
    let model = PnruleModel {
        target,
        threshold: params.decision_threshold,
        p_rules,
        n_rules,
        score_matrix,
    };
    // The fit is complete: a leftover checkpoint would seed the *next*
    // run of this key with an already-final rule list (correct but
    // wasteful — it would replay everything to rediscover the stop).
    if let Some(k) = &key {
        store.clear(k);
    }
    (model, report)
}

impl PnruleLearner {
    /// [`fit`](Self::fit) with rule-level checkpointing: progress is
    /// persisted to `store` after every accepted rule, and a checkpoint
    /// left by a killed fit of the same [`FitKey`] is resumed instead of
    /// restarted. The resumed model is byte-identical to the
    /// uninterrupted one (wall-clock budgets excepted — see the module
    /// docs).
    pub fn fit_checkpointed(
        &self,
        data: &Dataset,
        target: u32,
        store: &FitCheckpointStore,
    ) -> (PnruleModel, FitReport) {
        let is_pos: Vec<bool> = (0..data.n_rows())
            .map(|r| data.label(r) == target)
            .collect();
        self.fit_flags_checkpointed(data, target, &is_pos, store)
    }

    /// [`fit_checkpointed`](Self::fit_checkpointed) with explicit target
    /// flags.
    pub fn fit_flags_checkpointed(
        &self,
        data: &Dataset,
        target: u32,
        is_pos: &[bool],
        store: &FitCheckpointStore,
    ) -> (PnruleModel, FitReport) {
        run_fit(self, data, target, is_pos, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;
    use pnr_data::{AttrType, DatasetBuilder, Value};
    use pnr_rules::FitBudget;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The learner-test dataset: a presence band (x) whose coverage also
    /// drags in dos-flagged rows, forcing at least one P- and one N-rule.
    fn intrusion_like(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("r2l");
        b.add_class("rest");
        for i in 0..n {
            let x = (i % 50) as f64;
            let k = match (i / 50) % 5 {
                0 => "dos",
                1 => "web",
                _ => "ok",
            };
            let target = (20.0..24.0).contains(&x) && k != "dos";
            b.push_row(
                &[Value::num(x), Value::cat(k)],
                if target { "r2l" } else { "rest" },
                1.0,
            )
            .unwrap();
        }
        b.finish()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pnr_fitckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn artifact_string(
        model: PnruleModel,
        params: &PnruleParams,
        report: FitReport,
        data: &Dataset,
    ) -> String {
        ModelArtifact::new(model, params.clone(), report, data.schema().clone())
            .expect("artifact validates")
            .to_file_string()
            .expect("artifact renders")
    }

    #[test]
    fn key_distinguishes_target_params_weights_and_values() {
        let data = intrusion_like(300);
        let flags: Vec<bool> = (0..data.n_rows()).map(|r| data.label(r) == 0).collect();
        let params = PnruleParams::default();
        let base = FitKey::of(&data, 0, &flags, &params);
        assert_eq!(
            base.fingerprint(),
            FitKey::of(&data, 0, &flags, &params).fingerprint(),
            "deterministic"
        );
        assert_ne!(
            base.fingerprint(),
            FitKey::of(&data, 1, &flags, &params).fingerprint()
        );
        let other_params = PnruleParams {
            rp: 0.5,
            ..Default::default()
        };
        assert_ne!(
            base.fingerprint(),
            FitKey::of(&data, 0, &flags, &other_params).fingerprint()
        );
        let reweighted = data.with_weights(vec![2.0; data.n_rows()]);
        assert_ne!(
            base.fingerprint(),
            FitKey::of(&reweighted, 0, &flags, &params).fingerprint()
        );
        let mut flipped = flags.clone();
        flipped[0] = !flipped[0];
        assert_ne!(
            base.fingerprint(),
            FitKey::of(&data, 0, &flipped, &params).fingerprint()
        );
    }

    #[test]
    fn store_round_trips_and_rejects_stale_keys() {
        let dir = temp_dir("round");
        let data = intrusion_like(200);
        let flags: Vec<bool> = (0..data.n_rows()).map(|r| data.label(r) == 0).collect();
        let params = PnruleParams::default();
        let key = FitKey::of(&data, 0, &flags, &params);
        let store = FitCheckpointStore::new(&dir, true);
        assert!(store.load(&key).is_none(), "empty store has nothing");
        let ckpt = FitCheckpoint {
            key: key.clone(),
            p_rules: Vec::new(),
            p_done: false,
            p_covered_recall: 0.0,
            p_stop_reason: StopReason::default(),
            n_rules: Vec::new(),
            candidates_charged: 7,
        };
        store.store(&ckpt);
        let back = store.load(&key).expect("stored checkpoint loads");
        assert_eq!(back.candidates_charged, 7);
        // Corrupt file: load falls back to None.
        std::fs::write(store.path_for(&key), "{not json").unwrap();
        assert!(store.load(&key).is_none());
        // A record stored under a different key (simulated collision) is
        // rejected on the key equality check.
        let other = FitKey::of(&data, 1, &flags, &params);
        let mut stale = ckpt.clone();
        stale.key = other;
        std::fs::write(store.path_for(&key), serde_json::to_string(&stale).unwrap()).unwrap();
        assert!(store.load(&key).is_none());
        // Disabled stores neither load nor write.
        let off = FitCheckpointStore::new(&dir, false);
        off.store(&ckpt);
        assert!(off.load(&key).is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpointed_fit_matches_plain_fit_and_clears_its_file() {
        let dir = temp_dir("match");
        let data = intrusion_like(1000);
        let params = PnruleParams::default();
        let learner = PnruleLearner::new(params.clone());
        let (plain_model, plain_report) = learner.fit_with_report(&data, 0);
        let store = FitCheckpointStore::new(&dir, true);
        let (ck_model, ck_report) = learner.fit_checkpointed(&data, 0, &store);
        assert_eq!(
            artifact_string(plain_model, &params, plain_report, &data),
            artifact_string(ck_model, &params, ck_report, &data),
            "checkpointing must not perturb the fit"
        );
        let flags: Vec<bool> = (0..data.n_rows()).map(|r| data.label(r) == 0).collect();
        let key = FitKey::of(&data, 0, &flags, &params);
        assert!(
            store.load(&key).is_none(),
            "a completed fit clears its checkpoint"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Sweeps the kill position over every checkpoint write and asserts
    /// each resumed fit reproduces the uninterrupted artifact bytes.
    fn crash_resume_is_byte_identical(name: &str, params: PnruleParams) {
        let data = intrusion_like(1200);
        let learner = PnruleLearner::new(params.clone());
        let (want_model, want_report) = learner.fit_with_report(&data, 0);
        let want = artifact_string(want_model, &params, want_report, &data);
        let mut kill_after = 1;
        loop {
            let dir = temp_dir(&format!("{name}_{kill_after}"));
            let killer = FitCheckpointStore::new(&dir, true).with_kill_after(kill_after);
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                learner.fit_checkpointed(&data, 0, &killer)
            }))
            .is_err();
            let resumed = FitCheckpointStore::new(&dir, true);
            let (model, report) = learner.fit_checkpointed(&data, 0, &resumed);
            assert_eq!(
                artifact_string(model, &params, report, &data),
                want,
                "resume after kill at write {kill_after} diverged"
            );
            std::fs::remove_dir_all(dir).ok();
            if !crashed {
                // The kill position fell past the last write: every
                // earlier position has been exercised.
                break;
            }
            kill_after += 1;
        }
        assert!(kill_after > 1, "the sweep must exercise at least one kill");
    }

    #[test]
    fn kill_at_every_checkpoint_resumes_to_identical_bytes() {
        crash_resume_is_byte_identical("kill", PnruleParams::default());
    }

    #[test]
    fn kill_under_candidate_budget_resumes_to_identical_bytes() {
        // The budget path: resume must pre-charge the checkpointed
        // candidate count so the tracker latches where the uninterrupted
        // run latched.
        crash_resume_is_byte_identical(
            "kill_budget",
            PnruleParams {
                budget: FitBudget {
                    max_candidates: Some(2_000),
                    ..FitBudget::default()
                },
                ..Default::default()
            },
        );
    }

    #[test]
    fn stale_checkpoint_from_other_data_is_ignored() {
        let dir = temp_dir("stale_data");
        let params = PnruleParams::default();
        let learner = PnruleLearner::new(params.clone());
        // Crash a fit on one dataset, then fit different data against the
        // same store: the leftover file must not seed it.
        let first = intrusion_like(1200);
        let killer = FitCheckpointStore::new(&dir, true).with_kill_after(1);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            learner.fit_checkpointed(&first, 0, &killer)
        }))
        .is_err();
        assert!(crashed, "drill must trip");
        let second = intrusion_like(900);
        let (want_model, want_report) = learner.fit_with_report(&second, 0);
        let store = FitCheckpointStore::new(&dir, true);
        let (model, report) = learner.fit_checkpointed(&second, 0, &store);
        assert_eq!(
            artifact_string(model, &params, report, &second),
            artifact_string(want_model, &params, want_report, &second),
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
