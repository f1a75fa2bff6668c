#!/usr/bin/env bash
# CLI smoke checks: the `repro` binary driven the way a user drives it,
# with the assertions CI gates on. Builds `repro` once, then runs the
# named section (default: all of them) in a scratch directory.
#
#   scripts/cli-smoke.sh [metrics|resume|push-study|examples|all]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
section="${1:-all}"
case "$section" in
    metrics | resume | push-study | examples | all) ;;
    *)
        echo "unknown section '$section'; use metrics, resume, push-study, examples or all" >&2
        exit 2
        ;;
esac
cd "$root"
cargo build --release -p h2ready-bench --bin repro
repro="${CARGO_TARGET_DIR:-$root/target}/release/repro"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# Parses each named file as JSON; the golden manifest pins the bytes of
# these artifacts, not their validity.
json_ok() {
    python3 -c 'import json, sys; [json.load(open(f)) for f in sys.argv[1:]]' "$@"
}

# --metrics must observe without perturbing: a faulted campaign's
# experiment output (everything above the h2obs marker) has to be
# byte-identical with and without instrumentation. The traced
# OBS_campaign.json and `repro abuse`'s ABUSE_campaign.json parse.
metrics() {
    "$repro" all --scale 0.01 --threads 4 --faults flaky --seed 42 > plain.txt
    "$repro" all --scale 0.01 --threads 4 --faults flaky --seed 42 --metrics --trace-sites 3 > metrics.txt
    grep -q '^=== h2obs campaign metrics ===$' metrics.txt
    test -s OBS_campaign.json
    grep -q '"schema": "h2obs-campaign-v2"' OBS_campaign.json
    json_ok OBS_campaign.json
    sed '/^=== h2obs campaign metrics ===$/,$d' metrics.txt > stripped.txt
    diff plain.txt stripped.txt
    "$repro" abuse --out-dir abuse > /dev/null
    json_ok abuse/ABUSE_campaign.json
}

# The campaign record's crash-safety contract: a run killed mid-campaign
# (exit 3) and resumed at a different thread count must finalize a record
# byte-identical to an uninterrupted one (and must refuse a partial
# whose row index or a field key was flipped, exit 2), `repro diff` and
# `repro serve` must work from disk alone — the serve response digest the
# same on one worker as on four, though each connection reuses its
# decoded header lists, and its --metrics JSON valid — a torn record is
# exit 5 and a record whose meta line was edited is exit 6.
resume() {
    "$repro" adoption --exp 1 --scale 0.01 --threads 1 --faults flaky --seed 42 --record golden.h2c
    local status=0
    "$repro" adoption --exp 1 --scale 0.01 --threads 4 --faults flaky --seed 42 --record crashed.h2c --kill-after 40 || status=$?
    test "$status" -eq 3
    test -s crashed.h2c
    # (`! grep` would not trip `set -e`.)
    if grep -q '^end|' crashed.h2c; then
        echo 'a killed campaign left a finalized record' >&2
        exit 1
    fi
    # A row whose index was flipped is not the site it claims to be:
    # --resume must refuse the record (exit 2), not file the report
    # under the wrong site.
    local victim
    victim="$(grep -m1 -o '^r|i=[0-9]*|' crashed.h2c)"
    sed "s/^${victim}/r|i=99999|/" crashed.h2c > flipped.h2c
    status=0
    "$repro" adoption --exp 1 --scale 0.01 --threads 2 --faults flaky --seed 42 --resume flipped.h2c || status=$?
    test "$status" -eq 2
    # So is a row with one byte of a field key flipped: read leniently,
    # its resilience fields would default and a different record finalize.
    sed '0,/|pb\.out=/s//|pb.ouu=/' crashed.h2c > keyflip.h2c
    if cmp -s crashed.h2c keyflip.h2c; then
        echo 'no field key to flip in the partial record' >&2
        exit 1
    fi
    status=0
    "$repro" adoption --exp 1 --scale 0.01 --threads 2 --faults flaky --seed 42 --resume keyflip.h2c || status=$?
    test "$status" -eq 2
    "$repro" adoption --exp 1 --scale 0.01 --threads 2 --faults flaky --seed 42 --resume crashed.h2c
    cmp golden.h2c crashed.h2c
    "$repro" adoption --exp 2 --scale 0.01 --threads 4 --faults flaky --seed 42 --record second.h2c
    "$repro" diff golden.h2c second.h2c | tee diff.txt
    grep -q 'LONGITUDINAL DIFF' diff.txt
    "$repro" serve golden.h2c second.h2c --threads 4 --queries 2000 --hostile | tee serve.txt
    grep -q '2000 queries answered' serve.txt
    grep 'response digest' serve.txt > digest4.txt
    "$repro" serve golden.h2c second.h2c --threads 1 --queries 2000 --hostile > serve1.txt
    grep 'response digest' serve1.txt > digest1.txt
    cmp digest1.txt digest4.txt
    # With --metrics, serve's OBS_campaign.json carries the serve member
    # (--out-dir routes what serve writes; it reads record paths as given).
    "$repro" serve golden.h2c second.h2c --threads 2 --queries 200 --metrics --out-dir served > /dev/null
    grep -q '"serve": {"lookups":200,' served/OBS_campaign.json
    json_ok served/OBS_campaign.json
    sed '3d' golden.h2c > torn.h2c
    status=0
    "$repro" serve torn.h2c || status=$?
    test "$status" -eq 5
    # The checksum covers the meta line too: a relabelled campaign is a
    # checksum error (exit 6), not a Jan. 2017 record.
    sed '2s/2016/2017/' golden.h2c > relabelled.h2c
    if cmp -s golden.h2c relabelled.h2c; then
        echo 'no 2016 in the meta line to relabel' >&2
        exit 1
    fi
    status=0
    "$repro" diff relabelled.h2c relabelled.h2c || status=$?
    test "$status" -eq 6
}

# The push QoE study: a tiny sweep must emit a PUSH_campaign.json that
# parses with its pinned schema, byte-identical across thread counts. A
# scale that leaves no site to sample is a usage error naming the
# smallest one that does; at that scale the one sampled site returns no
# HEADERS, every load stalls, and the artifact is still JSON (no NaN).
push_study() {
    status=0
    "$repro" push-study --scale 4e-6 --sites 4 --loads 1 --out-dir tiny > tiny.txt 2> tiny.err || status=$?
    test "$status" -eq 2
    test ! -s tiny.txt
    test ! -e tiny/PUSH_campaign.json
    grep -q -- '--scale needs at least 5.89e-6' tiny.err
    "$repro" push-study --scale 5.89e-6 --sites 4 --loads 1 --out-dir tiny > tiny.txt
    if grep -i -w 'nan\|inf' tiny.txt tiny/PUSH_campaign.json; then
        exit 1
    fi
    python3 -c "import json; assert json.load(open('tiny/PUSH_campaign.json'))['sites'] == 1"
    "$repro" push-study --scale 0.002 --sites 6 --loads 2 --threads 4 --out-dir t4 > study.txt
    grep -q 'PUSH QOE STUDY' study.txt
    for policy in push-none push-all push-critical-path over-push; do
        grep -q "$policy" study.txt
    done
    for dim in rtt weight objects; do
        grep -q "help/hurt vs push-none, by $dim" study.txt
    done
    python3 - <<'PY'
import json
doc = json.load(open('t4/PUSH_campaign.json'))
assert doc['schema'] == 'h2push-study-v1', doc['schema']
assert doc['cells'] == doc['sites'] * len(doc['rtt_bands']) * len(doc['bandwidths'])
policies = [p['policy'] for p in doc['policies']]
assert policies == ['push-none', 'push-all', 'push-critical-path', 'over-push'], policies
base = doc['policies'][0]
assert base['promised'] == 0 and base['delivered'] == 0, base
for p in doc['policies'][1:]:
    assert p['delivered'] <= p['promised'], p
dims = [b['dimension'] for b in doc['breakdowns']]
assert dims == ['rtt', 'weight', 'objects'], dims
PY
    "$repro" push-study --scale 0.002 --sites 6 --loads 2 --threads 1 --out-dir t1 > /dev/null
    "$repro" push-study --scale 0.002 --sites 6 --loads 2 --threads 8 --out-dir t8 > /dev/null
    cmp t4/PUSH_campaign.json t1/PUSH_campaign.json
    cmp t4/PUSH_campaign.json t8/PUSH_campaign.json
}

# Every example under examples/ runs to completion and prints its
# study; one that cannot is deleted with its doc lines, not left to rot.
examples() {
    for source in "$root"/examples/*.rs; do
        name="$(basename "$source" .rs)"
        (cd "$root" && cargo run --release --example "$name") > "$name.txt"
        test -s "$name.txt"
    done
}

if [ "$section" = all ]; then
    metrics
    resume
    push_study
    examples
else
    "${section//-/_}"
fi
echo "cli-smoke: $section ok"
