#!/usr/bin/env bash
# Cluster smoke: end-to-end proof that router-mode kavserve produces
# verdicts identical to the offline checker on the merged trace, with a
# chaos proxy injecting faults between the router and one member.
#
#  1. start 3 kavserve member nodes (with -epoch, so the merged document
#     has epoch windows to carry)
#  2. front member 1 with kavchaos (503 sheds, resets, dropped bodies,
#     torn responses on /ingest)
#  3. start kavserve -route over [member0, chaos(member1), member2]
#  4. replay a generated trace through the router and drain the cluster —
#     the router's retry/reconcile machinery must absorb every fault, so
#     the replay client sees only clean acks
#  5. assert the router's merged /verdict carries the members' epoch windows
#  6. assert the chaos actually fired (router retry metrics + the kavchaos
#     shutdown summary)
#  7. diff the merged cluster per-key smallest-k verdicts against the
#     offline checker (kavcheck -stream -smallest) on the same trace
#
# Usage: scripts/cluster_smoke.sh [baseport]
set -euo pipefail

base=${1:-19080}
router_addr=127.0.0.1:$base
router_url=http://$router_addr
work=$(mktemp -d)
bin=$work/bin
pids=()
trap 'kill -9 "${pids[@]}" 2>/dev/null || true; rm -rf "$work"' EXIT

echo "== build"
go build -o "$bin/" ./cmd/kavserve ./cmd/kavgen ./cmd/kavcheck ./cmd/kavchaos

echo "== generate trace"
"$bin/kavgen" -keys 16 -ops 200 -depth 1 -inject 0.3 -inject-depth 2 > "$work/trace.txt"

wait_up() {
  for _ in $(seq 1 100); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "no /healthz on $1" >&2
  return 1
}

echo "== start 3 member nodes"
members=()
for i in 0 1 2; do
  addr=127.0.0.1:$((base + 1 + i))
  "$bin/kavserve" -addr "$addr" -epoch 1000 > "$work/member$i.log" 2>&1 &
  pids+=($!)
  disown
  members+=("http://$addr")
done
for m in "${members[@]}"; do wait_up "$m"; done

echo "== front member 1 with kavchaos"
chaos_addr=127.0.0.1:$((base + 4))
"$bin/kavchaos" -addr "$chaos_addr" -target "${members[1]}" \
  -shed 3 -reset 2 -drop 2 -torn 2 > "$work/chaos.log" 2>&1 &
chaos_pid=$!
pids+=($chaos_pid)
disown
wait_up "http://$chaos_addr"

echo "== start router"
"$bin/kavserve" -addr "$router_addr" -probe-interval 200ms -forward-retries 16 \
  -route "${members[0]},http://$chaos_addr,${members[2]}" > "$work/router.log" 2>&1 &
pids+=($!)
disown
wait_up "$router_url"

echo "== replay through the router (chaos between router and member 1)"
"$bin/kavgen" -replay "$router_url" -batch-ops 128 -drain "$work/trace.txt" > "$work/replay.log"
grep -q "replayed" "$work/replay.log"

echo "== the router's /verdict must carry the members' epoch windows"
# Read the whole document first: grep -q exits at its first match, and
# under pipefail the curl it leaves writing into a closed pipe fails the check.
curl -sf "$router_url/verdict" > "$work/verdict.json"
if ! grep -q '"epochs"' "$work/verdict.json"; then
  echo "FAIL: router /verdict has no epochs" >&2
  exit 1
fi

echo "== chaos must actually have fired"
curl -sf "$router_url/metrics" > "$work/metrics.txt"
for metric in kavserve_router_forward_retries_total kavserve_router_reconciles_total \
  kavserve_router_forward_ops_total kavserve_router_breaker_state; do
  if ! grep -q "^$metric" "$work/metrics.txt"; then
    echo "FAIL: router /metrics is missing $metric" >&2
    exit 1
  fi
done
retries=$(awk '/^kavserve_router_forward_retries_total/ {s += $2} END {print s+0}' "$work/metrics.txt")
if [ "$retries" -eq 0 ]; then
  echo "FAIL: router recorded no forward retries; the chaos proxy injected nothing" >&2
  cat "$work/chaos.log" >&2
  exit 1
fi
kill -INT "$chaos_pid"
while kill -0 "$chaos_pid" 2>/dev/null; do sleep 0.05; done
grep "injected" "$work/chaos.log"
if grep -q "injected 0 faults" "$work/chaos.log"; then
  echo "FAIL: kavchaos reports zero injected faults" >&2
  exit 1
fi

echo "== compare merged cluster verdicts against offline kavcheck"
norm='s/^key \([^ ]*\).*smallest k: \([0-9][0-9]*\).*/\1 \2/p'
sed -n "$norm" "$work/replay.log" | sort > "$work/cluster.verdicts"
"$bin/kavcheck" -stream -smallest "$work/trace.txt" > "$work/offline.log" || true
sed -n "$norm" "$work/offline.log" | sort > "$work/offline.verdicts"
if ! diff -u "$work/offline.verdicts" "$work/cluster.verdicts"; then
  echo "FAIL: cluster verdicts diverge from offline checker" >&2
  cat "$work/router.log" >&2
  exit 1
fi
[ -s "$work/cluster.verdicts" ] || { echo "FAIL: no verdicts compared" >&2; exit 1; }

echo "PASS: $(wc -l < "$work/cluster.verdicts") keys verdict-identical across a 3-node chaos cluster"
