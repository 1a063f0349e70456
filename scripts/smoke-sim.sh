#!/bin/sh
# smoke-sim: run the mesh simulator observatory end-to-end on a small
# tree — export a Chrome trace, validate it parses, and assert the
# energy accountant produced nonzero per-node totals.
#
# Usage: scripts/smoke-sim.sh
set -eu

GO="${GO:-go}"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/wazabeesim"
TRACE="$WORKDIR/trace.json"
SUMMARY="$WORKDIR/summary.json"

cleanup() {
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "smoke-sim: building wazabeesim"
$GO build -o "$BIN" ./cmd/wazabeesim

# Invalid flags must exit non-zero with a diagnostic — not panic (a
# goroutine dump exits 2 and prints no usable error).
# expect_bad_flags DIAGNOSTIC ARGS...: wazabeesim ARGS must exit 1 and
# print DIAGNOSTIC on stderr.
expect_bad_flags() {
    want="$1"
    shift
    set +e
    "$BIN" "$@" >/dev/null 2>"$WORKDIR/badflags.err"
    STATUS=$?
    set -e
    if [ "$STATUS" -ne 1 ]; then
        echo "smoke-sim: FAIL — '$*' exited $STATUS, want 1" >&2
        cat "$WORKDIR/badflags.err" >&2
        exit 1
    fi
    if ! grep -q -- "$want" "$WORKDIR/badflags.err"; then
        echo "smoke-sim: FAIL — no \"$want\" diagnostic for '$*':" >&2
        cat "$WORKDIR/badflags.err" >&2
        exit 1
    fi
}
echo "smoke-sim: asserting bad flags fail cleanly"
expect_bad_flags "negative -nodes" -topology star -nodes -3 -duration 1s
expect_bad_flags "link SNR NaN" -topology star -nodes 2 -duration 1s -snr NaN
expect_bad_flags "-depth 0 < 1" -topology tree -depth 0 -duration 1s
expect_bad_flags "negative -batch" -topology star -nodes 2 -duration 1s -batch -1s

echo "smoke-sim: simulating a depth-2 fanout-4 tree with -trace and -energy"
"$BIN" -topology tree -depth 2 -fanout 4 -duration 20s \
    -trace "$TRACE" -validate-trace -energy -json >"$SUMMARY"

# -validate-trace already parsed the trace inside the binary; check the
# document landed on disk with the expected framing too.
if [ ! -s "$TRACE" ]; then
    echo "smoke-sim: FAIL — trace file is empty" >&2
    exit 1
fi
if ! grep -q '"traceEvents"' "$TRACE"; then
    echo "smoke-sim: FAIL — trace is not a Chrome trace-event document" >&2
    head -c 400 "$TRACE" >&2
    exit 1
fi
echo "smoke-sim: trace validates ($(wc -c <"$TRACE") bytes)"

# The JSON summary must carry a nonzero energy total and heap marks.
if ! grep -q '"energy_microjoules"' "$SUMMARY"; then
    echo "smoke-sim: FAIL — summary has no energy total:" >&2
    cat "$SUMMARY" >&2
    exit 1
fi
if grep -q '"energy_microjoules": 0,' "$SUMMARY"; then
    echo "smoke-sim: FAIL — energy total is zero:" >&2
    cat "$SUMMARY" >&2
    exit 1
fi
if ! grep -q '"executed"' "$SUMMARY"; then
    echo "smoke-sim: FAIL — summary has no heap report:" >&2
    cat "$SUMMARY" >&2
    exit 1
fi
echo "smoke-sim: energy total nonzero, heap marks present"

# Same seed, same flags — the trace must be byte-identical.
"$BIN" -topology tree -depth 2 -fanout 4 -duration 20s \
    -trace "$WORKDIR/trace2.json" -energy >/dev/null
if ! cmp -s "$TRACE" "$WORKDIR/trace2.json"; then
    echo "smoke-sim: FAIL — same-seed traces differ" >&2
    exit 1
fi
echo "smoke-sim: same-seed trace byte-identical — PASS"
