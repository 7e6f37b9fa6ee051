#!/usr/bin/env bash
# cluster_smoke.sh — the multi-node CI smoke job.
#
# Boots three refidemd replicas plus a refidem-router on ephemeral
# ports, then exercises the cluster guarantees end to end:
#
#   1. Byte-identity through the router: a fig2 label via the router
#      must equal the single-daemon golden byte for byte — clients
#      cannot tell the router from a replica. Repeating it must be
#      answered from the router's response cache, with the same bytes.
#   2. The delta protocol: label a program, extract its fingerprint
#      from the response, send a region patch as a delta request, and
#      require the delta response byte-identical to a full label of the
#      patched program.
#   3. Failover: SIGKILL the replica that owns the program's key (found
#      via per-replica /metricz counters), re-issue the full label, and
#      require the same bytes from the failover successor.
#   4. The documented unknown-base recovery: after the owner dies, the
#      delta fails over to a successor that never saw the base (404
#      "unknown base"); re-sending the full program and retrying the
#      delta must reproduce the original delta response byte for byte.
#   5. Probe ejection: the router's /healthz must mark the killed
#      replica dead and /metricz must count the ejection and failovers.
#   6. Graceful drain: SIGTERM on the router and surviving replicas
#      must exit cleanly.
#
# Usage: scripts/cluster_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$out"' EXIT

go build -o "$out/refidemd" ./cmd/refidemd
go build -o "$out/refidem-router" ./cmd/refidem-router

# await_url FILE VAR — parse the "listening on http://HOST:PORT" line a
# daemon prints once ready, into the named variable. FILE is created
# before its daemon is launched, so it exists even if the daemon has not
# started yet.
await_url() {
  local file="$1" var="$2" found=""
  for _ in $(seq 1 100); do
    found="$(sed -n 's/^listening on \(http:\/\/[^ ]*\)$/\1/p' "$file" | head -n1)"
    [ -n "$found" ] && break
    sleep 0.1
  done
  [ -n "$found" ] || { echo "daemon behind $file never announced its address" >&2; exit 1; }
  printf -v "$var" '%s' "$found"
}

# Three replicas.
urls=()
for i in 0 1 2; do
  : >"$out/rep$i.out"
  "$out/refidemd" -addr 127.0.0.1:0 >"$out/rep$i.out" 2>"$out/rep$i.err" &
  pids+=($!)
done
for i in 0 1 2; do
  await_url "$out/rep$i.out" u
  urls+=("$u")
done
echo "smoke: replicas at ${urls[*]}"

# The router, probing fast enough that ejection shows within the run.
: >"$out/router.out"
"$out/refidem-router" -addr 127.0.0.1:0 \
  -replicas "$(IFS=,; echo "${urls[*]}")" \
  -probe-interval 100ms -probe-timeout 500ms -fail-after 2 \
  >"$out/router.out" 2>"$out/router.err" &
router_pid=$!
pids+=("$router_pid")
await_url "$out/router.out" router
echo "smoke: router at $router"

post() { curl -sfS -X POST -H 'Content-Type: application/json' -d "$1" "$router$2"; }

# 1. Byte-identity through the router against the single-daemon golden.
post '{"example": "fig2", "deps": true}' /v1/label >"$out/fig2.json"
diff -u cmd/refidemd/testdata/label_fig2.golden "$out/fig2.json"
echo "smoke: fig2 via router matches the single-daemon golden"
post '{"example": "fig2", "deps": true}' /v1/label >"$out/fig2_again.json"
diff -u cmd/refidemd/testdata/label_fig2.golden "$out/fig2_again.json"
curl -sfS "$router/metricz" >"$out/metricz_hits"
grep -q '^router_cache_hits [1-9]' "$out/metricz_hits" ||
  { echo "the repeated fig2 label was not answered from the router cache" >&2; cat "$out/metricz_hits" >&2; exit 1; }
echo "smoke: repeated fig2 answered from the router cache"

# 2. The delta protocol. Region r0 shrinks by one trip; r1 is untouched
# and must be served from the owner's fragment cache.
hdr='program cluster_smoke\nvar a[8]\nvar b[8]\n'
base_req='{"program": "'"$hdr"'region r0 loop k = 0 to 7 {\na[k] = a[k] + 1\n}\nregion r1 loop k = 0 to 7 {\nb[k] = a[k] + b[k]\n}\n"}'
patched_req='{"program": "'"$hdr"'region r0 loop k = 0 to 6 {\na[k] = a[k] + 1\n}\nregion r1 loop k = 0 to 7 {\nb[k] = a[k] + b[k]\n}\n"}'
patch_src='region r0 loop k = 0 to 6 {\na[k] = a[k] + 1\n}\n'

# Snapshot per-replica label counters so the owner is identifiable.
for i in 0 1 2; do
  curl -sfS "${urls[$i]}/metricz" | sed -n 's/^requests_label \([0-9]*\)$/\1/p' >"$out/before$i"
done

post "$base_req" /v1/label >"$out/full.json"
fp="$(sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p' "$out/full.json" | head -n1)"
[ -n "$fp" ] || { echo "no fingerprint in the label response" >&2; exit 1; }

owner=""
for i in 0 1 2; do
  curl -sfS "${urls[$i]}/metricz" | sed -n 's/^requests_label \([0-9]*\)$/\1/p' >"$out/after$i"
  if [ "$(cat "$out/before$i")" != "$(cat "$out/after$i")" ]; then owner="$i"; fi
done
[ -n "$owner" ] || { echo "no replica's label counter moved; cannot find the owner" >&2; exit 1; }
echo "smoke: program owner is replica $owner (${urls[$owner]})"

delta_req='{"base": "'"$fp"'", "patches": [{"region": "r0", "source": "'"$patch_src"'"}]}'
post "$delta_req" /v1/label >"$out/delta.json"
post "$patched_req" /v1/label >"$out/full_patched.json"
diff -u "$out/full_patched.json" "$out/delta.json"
echo "smoke: delta response byte-identical to a full re-label"

# 3. Kill the owner — no drain, no flush — and require the same bytes
# from the failover successor.
owner_pid="${pids[$owner]}"
kill -9 "$owner_pid"
wait "$owner_pid" 2>/dev/null || true

# 4. The delta's base lived only on the dead owner: the failover
# successor must answer 404 "unknown base" (passed through verbatim,
# not retried), and the documented recovery — re-send the full program,
# retry the delta — must restore byte-identical service.
code="$(curl -s -o "$out/delta_err.json" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' -d "$delta_req" "$router/v1/label")"
[ "$code" = "404" ] || { echo "post-kill delta answered $code, want 404" >&2; cat "$out/delta_err.json" >&2; exit 1; }
grep -q 'unknown base' "$out/delta_err.json"
echo "smoke: post-kill delta rejected with 404 unknown base"

post "$base_req" /v1/label >"$out/full2.json"
diff -u "$out/full.json" "$out/full2.json"
post "$delta_req" /v1/label >"$out/delta2.json"
diff -u "$out/delta.json" "$out/delta2.json"
echo "smoke: failover re-label and recovered delta byte-identical"

# 5. The prober must eject the dead replica and the counters must agree.
owner_name="${urls[$owner]#http://}"
ejected=""
for _ in $(seq 1 100); do
  if curl -sfS "$router/healthz" | grep -A2 "\"name\": \"$owner_name\"" | grep -q '"alive": false'; then
    ejected=yes
    break
  fi
  sleep 0.1
done
[ -n "$ejected" ] || { echo "router never marked $owner_name dead" >&2; curl -s "$router/healthz" >&2; exit 1; }
curl -sfS "$router/metricz" >"$out/metricz"
grep -q '^router_probe_ejections [1-9]' "$out/metricz"
if grep -q '^router_failovers 0$' "$out/metricz"; then
  echo "router_failovers stayed 0 despite a dead owner" >&2
  cat "$out/metricz" >&2
  exit 1
fi
echo "smoke: prober ejected the dead replica; failovers counted"

# 6. Graceful drain everywhere that is still alive.
kill -TERM "$router_pid"
wait "$router_pid"
for i in 0 1 2; do
  [ "$i" = "$owner" ] && continue
  kill -TERM "${pids[$i]}"
  wait "${pids[$i]}"
done
pids=()
echo "smoke: cluster OK"
