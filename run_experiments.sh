#!/bin/bash
# Regenerates every table/figure of the paper into results/.
# Usage: ./run_experiments.sh [scale]
#
# Completed (method, dataset) cells of every table, figure and ablation
# binary are checkpointed under results/checkpoints/; re-running after an
# interruption resumes from there (set RESUME_FLAGS=--no-resume to force
# a clean run; the flags reach ablations too). Each binary exits 0 only
# when every cell completed; the script runs everything regardless of
# individual failures and prints a pass/fail summary at the end, exiting
# non-zero when anything failed.
set -uo pipefail
SCALE="${1:-0.5}"
OUT=results
RESUME_FLAGS="${RESUME_FLAGS:-}"
mkdir -p "$OUT"
BIN=./target/release

declare -a NAMES=()
declare -a CODES=()

run_one() {
  local name="$1"
  shift
  local start code
  echo "=== $name ==="
  start=$(date +%s)
  "$@" > "$OUT/$name.txt" 2>&1
  code=$?
  echo "$name took $(( $(date +%s) - start ))s (exit $code)" | tee "$OUT/$name.time"
  NAMES+=("$name")
  CODES+=("$code")
}

for exp in table1 figure1 table2 table3 table4 table5 table6 \
           table_r2l table_r2l_p1 table_probe table_probe_p1; do
  # shellcheck disable=SC2086
  run_one "$exp" "$BIN/$exp" --scale "$SCALE" --out "$OUT" \
    --save-model "$OUT/models" $RESUME_FLAGS
done
run_one figure2 "$BIN/figure2"
run_one figure3 "$BIN/figure3"
# shellcheck disable=SC2086
run_one ablations "$BIN/ablations" --scale 0.3 --out "$OUT" $RESUME_FLAGS

"$BIN/report_md" --out "$OUT" > EXPERIMENTS_RESULTS.md
REPORT_CODE=$?
NAMES+=(report_md)
CODES+=("$REPORT_CODE")

# Every saved model artifact must load and pass its integrity check.
# (Cells resumed from checkpoints are not re-run and save no artifact,
# so a resumed run may verify fewer files than a clean one.)
VERIFY_CODE=0
N_MODELS=0
for artifact in "$OUT"/models/*.artifact; do
  [ -e "$artifact" ] || continue
  N_MODELS=$((N_MODELS + 1))
  if ! "$BIN/predict" --model "$artifact" --verify-only \
      >> "$OUT/verify-models.txt" 2>&1; then
    echo "FAILED to verify $artifact" >> "$OUT/verify-models.txt"
    VERIFY_CODE=1
  fi
done
echo "verified $N_MODELS model artifact(s)" | tee -a "$OUT/verify-models.txt"
NAMES+=(verify-models)
CODES+=("$VERIFY_CODE")

echo
echo "=== summary (scale $SCALE) ==="
printf '%-16s %s\n' "experiment" "status"
FAILED=0
for i in "${!NAMES[@]}"; do
  if [ "${CODES[$i]}" -eq 0 ]; then
    printf '%-16s PASS\n' "${NAMES[$i]}"
  else
    printf '%-16s FAIL (exit %s)\n' "${NAMES[$i]}" "${CODES[$i]}"
    FAILED=$((FAILED + 1))
  fi
done
if [ "$FAILED" -gt 0 ]; then
  echo "$FAILED experiment(s) failed"
  exit 1
fi
echo ALL_DONE
