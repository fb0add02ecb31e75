#!/usr/bin/env sh
# Tier-1 verification gate: release build + full test suite, forced
# offline. The workspace has zero external dependencies, so this must
# succeed against an empty cargo registry; a network fetch here is a
# regression in itself.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace

# Unwrap hygiene on the fault-injection substrate: the jtag, runtime
# and fleet library paths must stay free of .unwrap() so injected
# faults surface as typed errors, never as harness panics.
cargo clippy -p sint-jtag -p sint-runtime -p sint-fleet --lib -- -D warnings -D clippy::unwrap_used

# Campaign kill/resume determinism: run the checkpointed campaign to
# completion, run it again but kill it halfway, resume from the
# snapshot, and require the two summaries to be byte-identical — across
# different thread counts, with 10% of trials deliberately broken.
# Outside deadline mode every completing run also re-runs the batch at
# panel width 1 (scalar, no detector memo) and exits non-zero unless
# that summary is byte-identical to the memoised one.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

SINT_THREADS=1 target/release/campaign_resume \
    "$tmp/ref_ckpt.json" "$tmp/ref_summary.json"

status=0
SINT_THREADS=4 target/release/campaign_resume \
    "$tmp/ckpt.json" "$tmp/summary.json" --halt-after 10 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — halted run exited $status, expected 3" >&2
    exit 1
fi

SINT_THREADS=4 target/release/campaign_resume \
    "$tmp/ckpt.json" "$tmp/summary.json"

if ! cmp "$tmp/ref_summary.json" "$tmp/summary.json"; then
    echo "verify: FAIL — resumed summary differs from uninterrupted run" >&2
    exit 1
fi
echo "campaign resume: summaries byte-identical"

# Degraded-mode matrix: every ScanFault variant under both ChainPolicy
# arms — Strict must refuse any damaged chain, Degrade must accept
# exactly the localizable boundary break (with a CoverageReport and
# concession trail) and refuse the rest with typed errors. The matrix
# runs on the worker pool, so the summary JSON must be byte-identical
# across thread counts.
SINT_THREADS=1 target/release/degraded_matrix "$tmp/matrix_t1.json"
SINT_THREADS=8 target/release/degraded_matrix "$tmp/matrix_t8.json"
if ! cmp "$tmp/matrix_t1.json" "$tmp/matrix_t8.json"; then
    echo "verify: FAIL — degraded-session JSON differs across thread counts" >&2
    exit 1
fi
echo "degraded matrix: contract holds, byte-identical at 1 and 8 threads"

# Kill-under-deadline resume determinism: with a zero per-trial
# deadline every solver-bound trial (including the wedged one) sheds at
# the first cancellation poll, so the shed records are deterministic —
# kill the run halfway, resume from the snapshot, and require the
# summary (shed steps and all) to match the uninterrupted run byte for
# byte across thread counts.
SINT_THREADS=1 target/release/campaign_resume \
    "$tmp/shed_ref_ckpt.json" "$tmp/shed_ref_summary.json" --deadline-ms 0

status=0
SINT_THREADS=4 target/release/campaign_resume \
    "$tmp/shed_ckpt.json" "$tmp/shed_summary.json" \
    --deadline-ms 0 --halt-after 10 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — halted deadline run exited $status, expected 3" >&2
    exit 1
fi

SINT_THREADS=4 target/release/campaign_resume \
    "$tmp/shed_ckpt.json" "$tmp/shed_summary.json" --deadline-ms 0

if ! cmp "$tmp/shed_ref_summary.json" "$tmp/shed_summary.json"; then
    echo "verify: FAIL — resumed deadline summary differs from uninterrupted run" >&2
    exit 1
fi
echo "deadline shed resume: summaries byte-identical"

# Fleet determinism: a 1000-board sharded floor (three clients, one
# with a blown admission budget shedding every trial) must fold to a
# merged summary byte-identical between a serial run and a
# work-stealing 8-thread run.
SINT_THREADS=1 target/release/fleet_resume \
    "$tmp/fleet_ref_ckpt.json" "$tmp/fleet_ref_summary.json"
SINT_THREADS=8 target/release/fleet_resume \
    "$tmp/fleet_t8_ckpt.json" "$tmp/fleet_t8_summary.json"
if ! cmp "$tmp/fleet_ref_summary.json" "$tmp/fleet_t8_summary.json"; then
    echo "verify: FAIL — fleet summary differs between 1 and 8 threads" >&2
    exit 1
fi
echo "fleet determinism: merged summary byte-identical at 1 and 8 threads"

# Fleet kill/resume: kill the floor after 300 boards are checkpointed,
# resume from the snapshot on a different thread count, and require the
# merged summary to match the uninterrupted serial reference byte for
# byte — board-granular resume must re-run only unfinished boards.
status=0
SINT_THREADS=4 target/release/fleet_resume \
    "$tmp/fleet_ckpt.json" "$tmp/fleet_summary.json" --halt-after 300 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — halted fleet run exited $status, expected 3" >&2
    exit 1
fi

SINT_THREADS=8 target/release/fleet_resume \
    "$tmp/fleet_ckpt.json" "$tmp/fleet_summary.json"

if ! cmp "$tmp/fleet_ref_summary.json" "$tmp/fleet_summary.json"; then
    echo "verify: FAIL — resumed fleet summary differs from uninterrupted run" >&2
    exit 1
fi
echo "fleet resume: summaries byte-identical"

# Chaos matrix: the fleet resilience layer under an ACTIVE deterministic
# fault schedule (chain scan faults, wedged solvers, harness panics,
# sink write failures, torn/short/ENOSPC disk faults; flaky boards
# recovered by backoff-paced retry, dead boards quarantined by circuit
# breakers). The merged summary —
# verdict counts, quarantine roster and resilience totals included —
# must be byte-identical serial vs 8 threads, and across a kill at 300
# boards plus resume. The binary itself exits 4 if any injected
# infrastructure fault is attributed to the interconnect.
SINT_THREADS=1 target/release/chaos_check \
    "$tmp/chaos_ref_ckpt.json" "$tmp/chaos_ref_summary.json"
SINT_THREADS=8 target/release/chaos_check \
    "$tmp/chaos_t8_ckpt.json" "$tmp/chaos_t8_summary.json"
if ! cmp "$tmp/chaos_ref_summary.json" "$tmp/chaos_t8_summary.json"; then
    echo "verify: FAIL — chaotic fleet summary differs between 1 and 8 threads" >&2
    exit 1
fi

status=0
SINT_THREADS=4 target/release/chaos_check \
    "$tmp/chaos_ckpt.json" "$tmp/chaos_summary.json" --halt-after 300 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — halted chaos run exited $status, expected 3" >&2
    exit 1
fi

SINT_THREADS=8 target/release/chaos_check \
    "$tmp/chaos_ckpt.json" "$tmp/chaos_summary.json"

if ! cmp "$tmp/chaos_ref_summary.json" "$tmp/chaos_summary.json"; then
    echo "verify: FAIL — resumed chaos summary differs from uninterrupted run" >&2
    exit 1
fi
echo "chaos matrix: summaries byte-identical under active fault injection"

# Batched-solve determinism: the multi-RHS panel path is contractually
# bitwise-identical to the scalar path, so a fixed defect campaign
# (including a solver blow-up that forces the divergence fallback) must
# produce byte-identical summaries batched (panel width 8) vs unbatched
# (width 1) and across thread counts. The same binary gates the
# amortised-refactorisation path: a coupling-swept SoC must take the
# low-rank solver update and agree with fresh factors to 1e-12.
SINT_THREADS=1 target/release/batch_check 8 "$tmp/batch_w8.json"
SINT_THREADS=1 target/release/batch_check 1 "$tmp/batch_w1.json"
if ! cmp "$tmp/batch_w8.json" "$tmp/batch_w1.json"; then
    echo "verify: FAIL — batched summary differs from unbatched" >&2
    exit 1
fi
SINT_THREADS=8 target/release/batch_check 8 "$tmp/batch_w8_t8.json"
if ! cmp "$tmp/batch_w8.json" "$tmp/batch_w8_t8.json"; then
    echo "verify: FAIL — batched summary differs across thread counts" >&2
    exit 1
fi
echo "batched solves: byte-identical vs unbatched, low-rank gate holds"

# Torn-write storm: kill the streaming fleet run mid-write at several
# byte offsets (fixed and seeded-random), let the resume recover the
# CRC-framed records stream and the generation-paired checkpoint, and
# require the merged summary — and its records-replay self-check — to
# match the uninterrupted reference byte for byte.
for kill in rand:11 rand:22 4097; do
    rm -f "$tmp/tw_ckpt.json.a" "$tmp/tw_ckpt.json.b" \
        "$tmp/tw_records.jsonl" "$tmp/tw_summary.json"
    status=0
    SINT_THREADS=4 target/release/fleet_resume \
        "$tmp/tw_ckpt.json" "$tmp/tw_summary.json" \
        --records "$tmp/tw_records.jsonl" --kill-at-byte "$kill" || status=$?
    if [ "$status" -ne 3 ]; then
        echo "verify: FAIL — kill-at-byte $kill run exited $status, expected 3" >&2
        exit 1
    fi
    SINT_THREADS=8 target/release/fleet_resume \
        "$tmp/tw_ckpt.json" "$tmp/tw_summary.json" \
        --records "$tmp/tw_records.jsonl"
    if ! cmp "$tmp/fleet_ref_summary.json" "$tmp/tw_summary.json"; then
        echo "verify: FAIL — summary after kill at $kill differs from reference" >&2
        exit 1
    fi
done
echo "torn-write storm: recovered summaries byte-identical at 3 kill offsets"

# Torn checkpoint: tear the second generation image itself mid-write;
# the loader must fall back to the surviving generation and the resumed
# summary must still match the reference.
rm -f "$tmp/tc_ckpt.json.a" "$tmp/tc_ckpt.json.b" "$tmp/tc_summary.json"
status=0
SINT_THREADS=4 target/release/fleet_resume \
    "$tmp/tc_ckpt.json" "$tmp/tc_summary.json" --torn-ckpt 120 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — torn-checkpoint run exited $status, expected 3" >&2
    exit 1
fi
SINT_THREADS=8 target/release/fleet_resume \
    "$tmp/tc_ckpt.json" "$tmp/tc_summary.json"
if ! cmp "$tmp/fleet_ref_summary.json" "$tmp/tc_summary.json"; then
    echo "verify: FAIL — summary after torn checkpoint differs from reference" >&2
    exit 1
fi
echo "torn checkpoint: resume fell back a generation, summary byte-identical"

# The same crash storm under active chaos: injected disk faults in the
# schedule, a seeded kill mid-stream, then recovery + resume with the
# replay self-check armed (the binary exits 5 if the recovered stream
# does not fold back to the summary it wrote).
rm -f "$tmp/ctw_ckpt.json.a" "$tmp/ctw_ckpt.json.b" \
    "$tmp/ctw_records.jsonl" "$tmp/ctw_summary.json"
status=0
SINT_THREADS=4 target/release/chaos_check \
    "$tmp/ctw_ckpt.json" "$tmp/ctw_summary.json" \
    --records "$tmp/ctw_records.jsonl" --kill-at-byte rand:33 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — chaotic kill-at-byte run exited $status, expected 3" >&2
    exit 1
fi
SINT_THREADS=8 target/release/chaos_check \
    "$tmp/ctw_ckpt.json" "$tmp/ctw_summary.json" \
    --records "$tmp/ctw_records.jsonl"
if ! cmp "$tmp/chaos_ref_summary.json" "$tmp/ctw_summary.json"; then
    echo "verify: FAIL — chaotic summary after mid-stream kill differs" >&2
    exit 1
fi
echo "chaos crash storm: recovery + replay self-check byte-identical"

# Adaptive equivalence: the adaptive campaign engine (ledger-driven
# fault dropping, escalating read-out localization, reordered halves)
# must detect exactly what the attributed-exhaustive oracle detects —
# the binary itself exits 2 on any divergence. The summary must be
# byte-identical serial vs 8 threads, and across a kill at a round
# boundary plus resume (the checkpoint carries the coverage ledger, so
# the continuation drops exactly what the uninterrupted run would).
# Each completing run also re-runs the batch at panel width 1 (scalar,
# no detector memo) and exits 2 unless that summary is byte-identical.
SINT_THREADS=1 target/release/adaptive_check \
    "$tmp/ad_ref_ckpt.json" "$tmp/ad_ref_summary.json"
SINT_THREADS=8 target/release/adaptive_check \
    "$tmp/ad_t8_ckpt.json" "$tmp/ad_t8_summary.json"
if ! cmp "$tmp/ad_ref_summary.json" "$tmp/ad_t8_summary.json"; then
    echo "verify: FAIL — adaptive summary differs between 1 and 8 threads" >&2
    exit 1
fi

status=0
SINT_THREADS=4 target/release/adaptive_check \
    "$tmp/ad_ckpt.json" "$tmp/ad_summary.json" --halt-after 12 || status=$?
if [ "$status" -ne 3 ]; then
    echo "verify: FAIL — halted adaptive run exited $status, expected 3" >&2
    exit 1
fi

SINT_THREADS=8 target/release/adaptive_check \
    "$tmp/ad_ckpt.json" "$tmp/ad_summary.json"

if ! cmp "$tmp/ad_ref_summary.json" "$tmp/ad_summary.json"; then
    echo "verify: FAIL — resumed adaptive summary differs from uninterrupted run" >&2
    exit 1
fi
echo "adaptive equivalence: oracle match, summaries byte-identical"

# Detector-memo equivalence at 8 threads: the adaptive gate above
# already runs adaptive_check there; campaign_resume's gates stop at 4,
# so run it once more. Its in-process width-1 re-run (scalar, no memo)
# must match (exit 4 otherwise), and so must the serial reference.
SINT_THREADS=8 target/release/campaign_resume \
    "$tmp/memo_t8_ckpt.json" "$tmp/memo_t8_summary.json"
if ! cmp "$tmp/ref_summary.json" "$tmp/memo_t8_summary.json"; then
    echo "verify: FAIL — campaign summary differs at 8 threads" >&2
    exit 1
fi
echo "detector memo: summaries byte-identical to the scalar, memo-free runs"

echo "verify: OK"
