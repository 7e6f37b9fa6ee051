#!/usr/bin/env bash
# crash_restart_smoke.sh — the crash-safety CI smoke job.
#
# Proves the persistent result store end to end against a real process and
# a real SIGKILL:
#
#   1. boot refidemd with -store, populate it, wait for the write-behind
#      records to land, then SIGKILL the process (no drain, no flush);
#   2. restart on the same directory and require byte-identical responses
#      served from warm-start hits with zero pipeline recomputes;
#   3. corrupt one record on disk, restart again, and require the record
#      to be quarantined (reported, never served) while the response stays
#      byte-identical via recompute.
#
# Usage: scripts/crash_restart_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

go build -o /tmp/refidemd ./cmd/refidemd

out="$(mktemp -d)"
store="$out/store"
pid=""
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

# boot starts the daemon on an ephemeral port against $store and sets
# $url/$pid. Every boot writes the same files, so they are emptied first:
# the loop below must neither read a missing file nor the address of a
# daemon killed earlier.
boot() {
  : >"$out/stdout"
  : >"$out/stderr"
  /tmp/refidemd -addr 127.0.0.1:0 -store "$store" >"$out/stdout" 2>"$out/stderr" &
  pid=$!
  url=""
  for _ in $(seq 1 100); do
    url="$(sed -n 's/^listening on \(http:\/\/[^ ]*\)$/\1/p' "$out/stdout" | head -n1)"
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "refidemd died:" >&2; cat "$out/stderr" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$url" ] || { echo "refidemd never announced its address" >&2; cat "$out/stderr" >&2; exit 1; }
}

req() { # req <path> <body> <outfile>
  curl -sfS -X POST -H 'Content-Type: application/json' -d "$2" "$url$1" >"$3"
}

# ---- 1. populate and SIGKILL -------------------------------------------
boot
grep -q "store $store" "$out/stderr" || { echo "recovery scan not announced" >&2; exit 1; }
echo "crash-smoke: populating daemon at $url (store $store)"

req /v1/label    '{"example": "fig2", "deps": true}'                 "$out/cold_label.json"
req /v1/simulate '{"example": "fig2", "procs": 8, "capacity": 64}'   "$out/cold_sim.json"
req /v1/label    '{"example": "fig3"}'                               "$out/cold_fig3.json"

# The store writes are write-behind; wait until all three are durable so
# the SIGKILL below tests crash recovery, not write-loss timing.
for _ in $(seq 1 100); do
  curl -sfS "$url/metricz" >"$out/metricz" || true
  grep -q '^store_writes 3$' "$out/metricz" && break
  sleep 0.1
done
grep -q '^store_writes 3$' "$out/metricz" || { echo "write-behind never persisted 3 records" >&2; cat "$out/metricz" >&2; exit 1; }

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
echo "crash-smoke: daemon SIGKILLed with 3 records persisted"

# ---- 2. warm restart: byte-identical, zero recomputes ------------------
boot
req /v1/label    '{"example": "fig2", "deps": true}'                 "$out/warm_label.json"
req /v1/simulate '{"example": "fig2", "procs": 8, "capacity": 64}'   "$out/warm_sim.json"
req /v1/label    '{"example": "fig3"}'                               "$out/warm_fig3.json"
diff -u "$out/cold_label.json" "$out/warm_label.json"
diff -u "$out/cold_sim.json"   "$out/warm_sim.json"
diff -u "$out/cold_fig3.json"  "$out/warm_fig3.json"
# The live responses also still match the checked-in goldens.
diff -u cmd/refidemd/testdata/label_fig2.golden    "$out/warm_label.json"
diff -u cmd/refidemd/testdata/simulate_fig2.golden "$out/warm_sim.json"

curl -sfS "$url/healthz" >"$out/healthz"
grep -q '"store": "ok"' "$out/healthz"
grep -q '"store_warm_hits": 3' "$out/healthz"
curl -sfS "$url/metricz" >"$out/metricz"
grep -q '^tasks_computed 0$' "$out/metricz" || { echo "warm restart recomputed a persisted fingerprint" >&2; cat "$out/metricz" >&2; exit 1; }
grep -q '^store_warm_hits 3$' "$out/metricz"
echo "crash-smoke: warm restart byte-identical, 3 warm hits, 0 recomputes"

kill -9 "$pid"
wait "$pid" 2>/dev/null || true

# ---- 3. corrupt a record: quarantined, never served --------------------
rec="$(find "$store/records" -name '*.rec' | sort | head -n1)"
[ -n "$rec" ] || { echo "no record files found under $store/records" >&2; exit 1; }
# Flip bytes in the middle of the frame so the CRC must catch it.
printf 'XXXX' | dd of="$rec" bs=1 seek=32 conv=notrunc status=none

boot
grep -q '1 quarantined' "$out/stderr" || { echo "corrupt record not quarantined at recovery" >&2; cat "$out/stderr" >&2; exit 1; }
req /v1/label    '{"example": "fig2", "deps": true}'                 "$out/q_label.json"
req /v1/simulate '{"example": "fig2", "procs": 8, "capacity": 64}'   "$out/q_sim.json"
req /v1/label    '{"example": "fig3"}'                               "$out/q_fig3.json"
diff -u "$out/cold_label.json" "$out/q_label.json"
diff -u "$out/cold_sim.json"   "$out/q_sim.json"
diff -u "$out/cold_fig3.json"  "$out/q_fig3.json"

curl -sfS "$url/healthz" >"$out/healthz"
grep -q '"store_quarantined": 1' "$out/healthz"
curl -sfS "$url/metricz" >"$out/metricz"
grep -q '^store_quarantined 1$' "$out/metricz"
# Exactly the corrupted record recomputes; the other two stay warm hits.
grep -q '^tasks_computed 1$' "$out/metricz" || { echo "expected exactly 1 recompute after quarantine" >&2; cat "$out/metricz" >&2; exit 1; }
ls "$store/quarantine" | grep -q . || { echo "quarantine directory is empty (record silently deleted?)" >&2; exit 1; }
echo "crash-smoke: corrupt record quarantined and recomputed byte-identically"

# Graceful shutdown still works with a store attached.
kill -TERM "$pid"
wait "$pid"
grep -q 'drained, bye' "$out/stderr"
echo "crash-smoke: ok"
