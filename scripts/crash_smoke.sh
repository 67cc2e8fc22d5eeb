#!/usr/bin/env bash
# Crash-recovery smoke: end-to-end proof that a SIGKILLed durable kavserve
# loses nothing it acknowledged — in the flagship configuration, with the
# keyspace lifecycle on: retirement, epoch windows and every property.
#
#  1. start kavserve with -data-dir -retire-ttl -epoch -properties (batch
#     fsync; no background checkpoint, so the WAL holds the whole run)
#  2. replay a churning trace into it over one ordered connection (zero skew,
#     so any TTL is legal) — long enough to cross a retirement sweep interval
#     on every ingest shard, so keys retire and are re-admitted live
#  3. kill -9 the server — no drain, no terminal checkpoint
#  4. restart from the same -data-dir: the whole WAL replays, one shard group
#     of a request after another (a replay that retires on the watermark an
#     early record leaves behind dies here with "operation starts at or
#     before a committed cut") and a re-anchor checkpoint is written
#  5. kill -9 and restart again: this time the checkpoint restores, retired
#     records and all, and nothing replays
#  6. re-replay with -resume: the server must already hold every op
#  7. drain and diff the recovered per-key verdicts — ops, smallest k,
#     smallest Δ, irregular and unsafe reads — against the offline checker
#     (kavcheck -stream -smallest -properties) on the same trace
#  8. named tenants: -tenants a,b on one -data-dir, one trace each with
#     overlapping key names, kill -9, restart (each tenant replays its own
#     WAL), SIGTERM, and diff each tenant's drained smallest k against
#     kavcheck -stream -smallest on that tenant's trace
#  9. memory budget: -data-dir -memory-budget small enough that relief must
#     spill held runs and some requests are shed; the replay resends them and
#     completes, and the drained smallest k matches kavcheck -stream -smallest
#
# Usage: scripts/crash_smoke.sh [port]
set -euo pipefail

port=${1:-18080}
addr=127.0.0.1:$port
url=http://$addr
work=$(mktemp -d)
bin=$work/bin
data=$work/data
trap 'kill -9 $server_pid 2>/dev/null || true; rm -rf "$work"' EXIT

echo "== build"
go build -o "$bin/" ./cmd/kavserve ./cmd/kavgen ./cmd/kavcheck

echo "== generate trace"
# 6000 lifetimes x 20 ops = 120000 ops: three sweep intervals of 2048 ops on
# each of the 16 default ingest shards. Names recycle every 2000 lifetimes
# (40000 ops), more than one interval apart: retirement is two-phase, a key
# is folded by the sweep after the one that cut it, so a name reborn sooner
# would be live again before it ever became a retired record.
"$bin/kavgen" -churn 6000 -ops 20 -churn-pool 2000 > "$work/trace.txt"
total=$(grep -c . "$work/trace.txt")

wait_up() {
  for _ in $(seq 1 100); do
    if curl -sf "$url/verdict" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "kavserve did not come up on $addr" >&2
  return 1
}

start_server() { # $1: log file
  "$bin/kavserve" -addr "$addr" -data-dir "$data" -fsync batch -checkpoint-interval 1h \
    -retire-ttl 200 -epoch 5000 -properties k,delta,regularity > "$1" 2>&1 &
  server_pid=$!
  disown
  wait_up || { cat "$1" >&2; return 1; }
}

crash() {
  kill -9 "$server_pid"
  while kill -0 "$server_pid" 2>/dev/null; do sleep 0.05; done
}

metric() { curl -sf "$url/metrics" | awk -v m="$1" '$1 == m { print $2 }'; }

echo "== start durable kavserve"
start_server "$work/serve1.log"

echo "== replay trace (acknowledged batches, one ordered connection)"
"$bin/kavgen" -replay "$url" -clients 1 -batch-ops 256 "$work/trace.txt" | tail -n 2
if [ "$(metric kavserve_retirements_total)" -eq 0 ] || [ "$(metric kavserve_readmissions_total)" -eq 0 ]; then
  echo "FAIL: the live run retired or re-admitted nothing; the trace is not exercising the lifecycle" >&2
  exit 1
fi

echo "== SIGKILL (no drain, no checkpoint: the WAL is all there is)"
crash

echo "== restart from $data: full WAL replay"
start_server "$work/serve2.log"
grep "recovered checkpoint" "$work/serve2.log"
if ! grep -q "replayed $total ops" "$work/serve2.log"; then
  echo "FAIL: restart did not replay the $total acknowledged ops from the WAL" >&2
  cat "$work/serve2.log" >&2
  exit 1
fi

echo "== SIGKILL again, restart from the re-anchor checkpoint"
crash
start_server "$work/serve3.log"
grep "recovered checkpoint" "$work/serve3.log"
if ! grep -qE "recovered checkpoint epoch [0-9]+ \([0-9]+ keys\), replayed 0 ops" "$work/serve3.log"; then
  echo "FAIL: second restart did not come back from the re-anchor checkpoint alone" >&2
  cat "$work/serve3.log" >&2
  exit 1
fi
if [ "$(metric kavserve_retired_keys)" -eq 0 ]; then
  echo "FAIL: the checkpoint restored no retired records" >&2
  exit 1
fi

echo "== durability counters exported on /metrics"
curl -sf "$url/metrics" > "$work/metrics.txt"
for m in kavserve_wal_fsyncs_total kavserve_wal_fsync_seconds_total \
  kavserve_recovery_replayed_ops_total kavserve_checkpoints_total; do
  if ! grep -q "^$m" "$work/metrics.txt"; then
    echo "FAIL: /metrics is missing $m" >&2
    exit 1
  fi
done

echo "== resume replay: every acknowledged op must already be there"
"$bin/kavgen" -replay "$url" -clients 1 -resume -drain "$work/trace.txt" > "$work/resume.log"
if ! grep -q "server already holds $total of these ops" "$work/resume.log"; then
  echo "FAIL: recovered server is missing acknowledged ops" >&2
  cat "$work/resume.log" >&2
  exit 1
fi

echo "== compare recovered verdicts against offline kavcheck"
# Both print "key NAME N ops  smallest k: K  smallest Δ: D  irregular: I
# unsafe: U" (column widths differ); the server appends its status.
norm='s/^\(key .*unsafe: [0-9][0-9]*\).*/\1/p'
sed -n "$norm" "$work/resume.log" | tr -s ' ' | sort > "$work/recovered.verdicts"
"$bin/kavcheck" -stream -smallest -properties "$work/trace.txt" > "$work/offline.log" || true
sed -n "$norm" "$work/offline.log" | tr -s ' ' | sort > "$work/offline.verdicts"
if ! diff -u "$work/offline.verdicts" "$work/recovered.verdicts"; then
  echo "FAIL: recovered verdicts diverge from offline checker" >&2
  exit 1
fi
[ -s "$work/recovered.verdicts" ] || { echo "FAIL: no verdicts compared" >&2; exit 1; }

kill -9 "$server_pid" 2>/dev/null || true
echo "PASS: $(wc -l < "$work/recovered.verdicts") keys verdict-identical after crash recovery"

echo "== tenants: -tenants a,b -data-dir, overlapping key names, SIGKILL, restart"
# Each tenant keeps its WAL in <data-dir>/<tenant>; a restart replays each
# tenant's own acknowledged operations, and SIGTERM drains every tenant and
# prints its final verdicts under "kavserve: [tenant] final".
tdata=$work/tenants
"$bin/kavgen" -keys 40 -ops 200 -depth 2 -seed 1 > "$work/a.txt"
"$bin/kavgen" -keys 40 -ops 150 -depth 1 -seed 2 > "$work/b.txt"
start_tenants() { # $1: log file
  "$bin/kavserve" -addr "$addr" -tenants a,b -data-dir "$tdata" -fsync batch -checkpoint-interval 1h > "$1" 2>&1 &
  server_pid=$!
  disown
  wait_up || { cat "$1" >&2; return 1; }
}
start_tenants "$work/tenants1.log"
for t in a b; do
  curl -sf --data-binary @"$work/$t.txt" "$url/ingest/$t" > /dev/null
done
crash
start_tenants "$work/tenants2.log"
for t in a b; do
  n=$(grep -c . "$work/$t.txt")
  if ! grep -q "kavserve: \[$t\] recovered checkpoint epoch -1 (0 keys), replayed $n ops" "$work/tenants2.log"; then
    echo "FAIL: tenant $t did not replay its $n acknowledged ops from $tdata/$t" >&2
    cat "$work/tenants2.log" >&2
    exit 1
  fi
done
kill -TERM "$server_pid"
while kill -0 "$server_pid" 2>/dev/null; do sleep 0.05; done
# Key lines precede each tenant's "kavserve: [t] final verdicts ..." line.
awk -v dir="$work" '/^key /{ buf = buf $0 "\n"; next }
  /^kavserve: \[.*\] final / { t = $2; gsub(/[][]/, "", t); printf "%s", buf > (dir "/served." t); buf = "" }' "$work/tenants2.log"
pair='s/^key \([^ ]*\) .*smallest k: \([0-9][0-9]*\).*/\1 \2/p'
for t in a b; do
  "$bin/kavcheck" -stream -smallest "$work/$t.txt" > "$work/offline.$t" || true
  sed -n "$pair" "$work/offline.$t" | sort > "$work/offline.$t.verdicts"
  sed -n "$pair" "$work/served.$t" | sort > "$work/served.$t.verdicts"
  [ -s "$work/served.$t.verdicts" ] || { echo "FAIL: tenant $t printed no verdicts" >&2; exit 1; }
  if ! diff -u "$work/offline.$t.verdicts" "$work/served.$t.verdicts"; then
    echo "FAIL: tenant $t's recovered verdicts diverge from offline checker" >&2
    exit 1
  fi
done
echo "PASS: tenants a and b verdict-identical after crash recovery ($(wc -l < "$work/served.a.verdicts") + $(wc -l < "$work/served.b.verdicts") keys)"

echo "== memory budget: -data-dir -memory-budget, relief spills, sheds are resent"
# The trace's held runs outgrow the budget many times over, so every relief
# spills the largest of them to the data directory, and a request that finds
# the budget full before relief is due again is shed and resent.
budget=32K
"$bin/kavgen" -keys 64 -ops 300 -depth 2 -seed 3 > "$work/budget.txt"
btotal=$(grep -c . "$work/budget.txt")
"$bin/kavserve" -addr "$addr" -data-dir "$work/budget" -memory-budget "$budget" > "$work/budget.log" 2>&1 &
server_pid=$!
disown
wait_up || { cat "$work/budget.log" >&2; exit 1; }
"$bin/kavgen" -replay "$url" -clients 1 -batch-ops 256 -drain "$work/budget.txt" > "$work/budget.replay"
if ! grep -q "replayed $btotal/$btotal ops" "$work/budget.replay"; then
  echo "FAIL: the replay under the budget did not deliver all $btotal ops" >&2
  cat "$work/budget.replay" >&2
  exit 1
fi
for m in kavserve_spills_total kavserve_memory_reliefs_total; do
  if [ "$(metric $m)" -eq 0 ]; then
    echo "FAIL: $m is 0; the budget never made relief spill" >&2
    exit 1
  fi
done
"$bin/kavcheck" -stream -smallest "$work/budget.txt" > "$work/offline.budget" || true
sed -n "$pair" "$work/offline.budget" | sort > "$work/offline.budget.verdicts"
sed -n "$pair" "$work/budget.replay" | sort > "$work/served.budget.verdicts"
[ -s "$work/served.budget.verdicts" ] || { echo "FAIL: the budget run printed no verdicts" >&2; exit 1; }
if ! diff -u "$work/offline.budget.verdicts" "$work/served.budget.verdicts"; then
  echo "FAIL: verdicts under the memory budget diverge from offline checker" >&2
  exit 1
fi
echo "PASS: $(wc -l < "$work/served.budget.verdicts") keys verdict-identical under a $budget memory budget ($(metric kavserve_spills_total) spills, $(metric 'kavserve_ingest_rejected_total{reason="overload"}') sheds resent)"
