#!/usr/bin/env bash
# service_smoke.sh — the refidemd CI smoke job.
#
# Boots the daemon on an ephemeral port, waits for /healthz, POSTs a fig2
# label request and diffs the body against the checked-in golden response
# (cmd/refidemd/testdata/label_fig2.golden — the byte-determinism
# guarantee, enforced against a live server), exercises /metricz and the
# /debug/tracez flight recorder, simulates fig2 at capacities up to 2^30
# (each must verify, and /metricz must count reused rows, repeats resolved
# by selector digest and answers from kept rows), checks that an
# out-of-range processor count answers 400, then sends SIGTERM and
# verifies the graceful drain exits cleanly.
#
# Usage: scripts/service_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

go build -o /tmp/refidemd ./cmd/refidemd

out="$(mktemp -d)"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

# The file exists before the loop below reads it, even if the daemon has
# not started yet.
: >"$out/stdout"
/tmp/refidemd -addr 127.0.0.1:0 >"$out/stdout" 2>"$out/stderr" &
pid=$!

# The daemon announces "listening on http://HOST:PORT" once ready.
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's/^listening on \(http:\/\/[^ ]*\)$/\1/p' "$out/stdout" | head -n1)"
  [ -n "$url" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "refidemd died:" >&2; cat "$out/stderr" >&2; exit 1; }
  sleep 0.1
done
[ -n "$url" ] || { echo "refidemd never announced its address" >&2; cat "$out/stderr" >&2; exit 1; }
echo "smoke: daemon at $url"

# /healthz is a JSON document: status plus the store state (disabled —
# no -store flag here; crash_restart_smoke.sh covers the store states).
curl -sfS "$url/healthz" >"$out/healthz"
grep -q '"status": "ok"' "$out/healthz"
grep -q '"store": "disabled"' "$out/healthz"

# The label response must be byte-identical to the golden document.
curl -sfS -X POST -H 'Content-Type: application/json' \
  -d '{"example": "fig2", "deps": true}' \
  "$url/v1/label" >"$out/label_fig2.json"
diff -u cmd/refidemd/testdata/label_fig2.golden "$out/label_fig2.json"
echo "smoke: fig2 label response matches golden"

# Repeat request: still byte-identical (served from the response cache).
curl -sfS -X POST -H 'Content-Type: application/json' \
  -d '{"example": "fig2", "deps": true}' \
  "$url/v1/label" | diff -u cmd/refidemd/testdata/label_fig2.golden -

curl -sfS "$url/metricz" >"$out/metricz"
grep -q '^requests_label 2$' "$out/metricz"
grep -q '^response_cache_hits 1$' "$out/metricz"
echo "smoke: metricz counters consistent"

# The flight recorder (default -flight 256) must show the label spans:
# the text table carries op and outcome, the JSON form the same span.
curl -sfS "$url/debug/tracez" >"$out/tracez"
grep -q 'label' "$out/tracez"
grep -q 'ok' "$out/tracez"
curl -sfS "$url/debug/tracez?format=json" >"$out/tracez.json"
grep -q '"op": "label"' "$out/tracez.json"
grep -q '"outcome": "ok"' "$out/tracez.json"
echo "smoke: tracez shows the label spans"

# Simulate fig2 at capacities 16, 4096, 2^20 and 2^30: each must verify.
# The sequential run and every saturated speculative run are kept on the
# program's entry, so later capacities reuse rows, and speculative storage
# is sized by occupancy, so 2^30 entries cost no more than 16. fig2
# saturates at 16, so the three later simulates are answered from its
# kept rows without queueing. The second finds the program by fingerprint
# and gives the example name an alias; the last two find it by their
# selector digest (no parse).
for cap in 16 4096 1048576 1073741824; do
  curl -sfS -X POST -H 'Content-Type: application/json' \
    -d "{\"example\": \"fig2\", \"capacity\": $cap}" \
    "$url/v1/simulate" >"$out/simulate_$cap.json"
  grep -q '"verified": true' "$out/simulate_$cap.json" ||
    { echo "fig2 simulate at capacity $cap did not verify:" >&2; cat "$out/simulate_$cap.json" >&2; exit 1; }
done
curl -sfS "$url/metricz" >"$out/metricz"
grep -q '^sim_rows_reused [1-9]' "$out/metricz" ||
  { echo "no simulate row was reused" >&2; cat "$out/metricz" >&2; exit 1; }
grep -Eq '^sim_source_hits ([2-9]|[1-9][0-9]+)$' "$out/metricz" ||
  { echo "fewer than 2 simulates resolved by selector digest" >&2; cat "$out/metricz" >&2; exit 1; }
grep -q '^sim_answered_kept [1-9]' "$out/metricz" ||
  { echo "no simulate was answered from kept rows" >&2; cat "$out/metricz" >&2; exit 1; }
echo "smoke: fig2 simulates verify at capacities 16, 4096, 2^20 and 2^30, rows reused, repeats answered from kept rows"

# A processor count above the documented maximum (1024) is a bad request.
code="$(curl -sS -o "$out/procs_body" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"example": "fig2", "procs": 100000}' "$url/v1/simulate")"
[ "$code" = 400 ] || { echo "procs 100000 answered $code, want 400" >&2; cat "$out/procs_body" >&2; exit 1; }
echo "smoke: procs 100000 rejected with 400"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
wait "$pid"
grep -q 'drained, bye' "$out/stderr"
echo "smoke: graceful drain ok"
