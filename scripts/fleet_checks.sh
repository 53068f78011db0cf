#!/bin/sh
# Tool-level checks for aropuf_fleet, the one job runner.  Each leg runs the
# tool on this host and asserts what a sharded run must guarantee.  The
# tools.shard_*, tools.fleet_* ctest legs and the CI smoke jobs call this
# script, so the same checks run locally and in CI.
#
# Usage: fleet_checks.sh FLEET_BINARY OUT_DIR LEG
#
# Local-run legs (48 chips, checkpoints 1,5,10, 2 local workers):
#   split       4-shard run on local workers vs 1-shard run in-process
#               (--no-fork): every shard manifest and both aggregates
#               validate, and the merged statistics are --diff-stats
#               identical.
#   transports  --drop-raw over the JSON and the binary transport: both pass
#               --check-single, report the fold window, mark raw series
#               dropped, and merge to --diff-stats identical statistics; the
#               binary shard manifests decode under the Python validator.
#   resume      delete one shard manifest and rerun with --resume: the other
#               shards are folded from disk, only the missing one is
#               dispatched, and the merged manifest is --diff-stats identical.
#   local-kill  200 chips, 4 shards: as soon as both local workers own a
#               shard, one is SIGKILLed and the other SIGSTOPped.  The launcher must replace the dead worker, kill
#               the silent one after --worker-timeout (5 s), finish
#               bit-identically (--check-single), and leave no worker
#               process behind.
#
# TCP legs (12 chips, 3 shards): a --listen coordinator plus two separately
# launched --worker processes, --check-single, and the observability
# artifacts (merged timeline, metrics snapshot, Prometheus exposition):
#   tcp         both workers finish cleanly.
#   tcp-kill    worker 1 hard-closes its connection on its first job (the
#               --abort-first-job test hook), which drives the coordinator's
#               reassignment path deterministically; the run must still
#               complete bit-identically.
#
# Exit: 0 on success; nonzero (with a message) on any failure.
set -eu

FLEET=${1:?usage: fleet_checks.sh FLEET_BINARY OUT_DIR LEG}
OUT=${2:?usage: fleet_checks.sh FLEET_BINARY OUT_DIR LEG}
LEG=${3:?usage: fleet_checks.sh FLEET_BINARY OUT_DIR LEG}
VALIDATE="python3 $(dirname "$0")/validate_manifest.py"
STUDY="--chips 48 --checkpoints 1,5,10 --jobs 2"

fail() {
  echo "fleet_checks[$LEG]: $*" >&2
  exit 1
}

tcp_leg() {
  PORT_FILE="$OUT/coordinator.port"

  # Profile the whole fleet: every process resolves AROPUF_PROF itself (perf
  # counters where the kernel allows, the rusage fallback elsewhere), so the
  # workers' METRICS frames carry prof.*/proc.* instruments either way and the
  # Prometheus exposition must export them.
  AROPUF_PROF=on
  export AROPUF_PROF

  # Total timeout bounds a hung run (a dead worker must surface as a reassign
  # or a failed job, never as a stuck CI leg).
  "$FLEET" --listen 0 --port-file "$PORT_FILE" \
    --shards 3 --chips 12 --checkpoints 1,10 \
    --out "$OUT" --check-single --timeout 600 --run shard_study &
  COORD_PID=$!

  # Rendezvous: the coordinator writes the kernel-assigned port atomically.
  i=0
  while [ ! -f "$PORT_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      kill "$COORD_PID" 2>/dev/null || true
      fail "coordinator never wrote $PORT_FILE"
    fi
    sleep 0.1
  done
  PORT=$(cat "$PORT_FILE")

  W1_FLAGS=""
  if [ "$LEG" = "tcp-kill" ]; then
    W1_FLAGS="--abort-first-job"
  fi
  # shellcheck disable=SC2086  # W1_FLAGS is intentionally word-split
  "$FLEET" --worker "127.0.0.1:$PORT" --name smoke-w1 $W1_FLAGS &
  W1_PID=$!
  "$FLEET" --worker "127.0.0.1:$PORT" --name smoke-w2 &
  W2_PID=$!

  COORD_RC=0
  wait "$COORD_PID" || COORD_RC=$?
  W1_RC=0
  wait "$W1_PID" || W1_RC=$?
  W2_RC=0
  wait "$W2_PID" || W2_RC=$?

  if [ "$COORD_RC" -ne 0 ]; then
    fail "coordinator exited $COORD_RC (want 0)"
  fi
  if [ "$LEG" = "tcp-kill" ]; then
    # WorkerExit::kAborted — the hook must actually have fired.
    if [ "$W1_RC" -ne 3 ]; then
      fail "killed worker exited $W1_RC (want 3)"
    fi
  else
    if [ "$W1_RC" -ne 0 ]; then
      fail "worker 1 exited $W1_RC (want 0)"
    fi
  fi
  if [ "$W2_RC" -ne 0 ]; then
    fail "worker 2 exited $W2_RC (want 0)"
  fi
  if [ ! -f "$OUT/merged.manifest.json" ]; then
    fail "no merged manifest in $OUT"
  fi

  # Observability artifacts: every run must leave the merged fleet timeline,
  # the metrics snapshot, and the Prometheus exposition next to the manifest.
  for artifact in fleet_trace.json fleet_metrics.json fleet_metrics.prom; do
    if [ ! -f "$OUT/$artifact" ]; then
      fail "missing observability artifact $OUT/$artifact"
    fi
  done

  # With AROPUF_PROF=on every worker's snapshots carry profiling instruments
  # (prof.scopes at minimum, even on the fallback path), so the exposition
  # must include the per-worker profile family.
  if ! grep -q "aropuf_fleet_worker_profile" "$OUT/fleet_metrics.prom"; then
    fail "fleet_metrics.prom has no aropuf_fleet_worker_profile series"
  fi

  # Deep checks need python3; skip gracefully on hosts without it (the C++
  # gtest suites cover the same invariants in-process).
  if command -v python3 >/dev/null 2>&1; then
    $VALIDATE --trace "$OUT/fleet_trace.json"
    $VALIDATE --fleet-metrics "$OUT/fleet_metrics.json"
    # One trace_id, spans from the coordinator AND both worker processes, and
    # per-worker job counts summing to the shard plan (reassignment included).
    python3 - "$OUT" "$LEG" <<'PYEOF'
import json, sys
out, kill_one = sys.argv[1], sys.argv[2]
trace = json.load(open(f"{out}/fleet_trace.json"))
metrics = json.load(open(f"{out}/fleet_metrics.json"))
if not trace.get("trace_id"):
    sys.exit(f"{out}/fleet_trace.json: missing trace_id")
if trace["trace_id"] != metrics.get("trace_id"):
    sys.exit("trace_id differs between fleet_trace.json and fleet_metrics.json")
x_pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"}
if 1 not in x_pids:
    sys.exit("merged trace has no coordinator (pid 1) spans")
worker_pids = {w["pid"] for w in metrics["workers"]}
missing = worker_pids - x_pids
if missing:
    sys.exit(f"merged trace is missing spans from worker pid(s) {sorted(missing)}"
             " — even a killed worker ships its connect span")
prev = -1.0
for e in trace["traceEvents"]:
    if e.get("ph") != "X":
        continue
    if e["ts"] < prev:
        sys.exit("merged trace timestamps are not monotonic after offset correction")
    prev = e["ts"]
shards = metrics["shards"]
done_sum = sum(w["jobs_done"] for w in metrics["workers"])
if done_sum != shards["done"] or shards["done"] != shards["total"]:
    sys.exit(f"job accounting broken: per-worker sum {done_sum}, "
             f"done {shards['done']}, total {shards['total']}")
if kill_one == "tcp-kill":
    if shards["reassigned"] < 1:
        sys.exit("kill-one run recorded no reassignment")
    if len(metrics["workers"]) != 2:
        sys.exit("kill-one run should have seen exactly 2 workers")
print(f"fleet_checks: observability OK (trace_id {trace['trace_id']}, "
      f"{len(x_pids)} processes, {shards['reassigned']} reassigned)")
PYEOF
  fi
}

local_kill_leg() {
  "$FLEET" --chips 200 --shards 4 --jobs 2 --checkpoints 1,10 --worker-timeout 5 --retries 3 \
    --check-single --out "$OUT/run" > "$OUT/run.log" 2>&1 &
  RUN_PID=$!
  # Two dispatches = both workers own a shard (a worker gets one at a time).
  i=0
  until [ "$(grep -c "^fleet: dispatch shard" "$OUT/run.log" 2>/dev/null)" -ge 2 ]; do
    i=$((i + 1))
    [ "$i" -le 600 ] || fail "the two local workers never both got a shard"
    sleep 0.05
  done
  WORKERS=$(pgrep -P "$RUN_PID") || fail "no local worker processes"
  # shellcheck disable=SC2086  # one pid per word
  set -- $WORKERS
  [ "$#" -eq 2 ] || fail "want 2 local workers, found $#"
  WORKER_ARGS=$(ps -o args= -p "$1")
  kill -KILL "$1"
  kill -STOP "$2"
  RUN_RC=0
  wait "$RUN_PID" || RUN_RC=$?
  [ "$RUN_RC" -eq 0 ] || fail "local run exited $RUN_RC (want 0); see $OUT/run.log"
  grep -q "^fleet: timeout shard" "$OUT/run.log" || fail "the stopped worker never timed out"
  [ "$(grep -c "^fleet: retry shard" "$OUT/run.log")" -ge 2 ] ||
    fail "want a retry for both lost shards"
  [ "$(grep -c "^fleet: connect:" "$OUT/run.log")" -ge 3 ] || fail "no replacement worker connected"
  grep -q "merged statistics are bit-identical" "$OUT/run.log" || fail "--check-single did not pass"
  ! pgrep -f "^$WORKER_ARGS\$" > /dev/null || fail "local workers outlived the run"
}

rm -rf "$OUT"
mkdir -p "$OUT"

case "$LEG" in
  split)
    # shellcheck disable=SC2086  # STUDY is intentionally word-split
    "$FLEET" $STUDY --shards 4 --format json --out "$OUT/four" --quiet
    "$FLEET" --chips 48 --checkpoints 1,5,10 --no-fork --shards 1 --format json \
      --out "$OUT/one" --quiet
    $VALIDATE "$OUT"/four/shard-0.manifest.json "$OUT"/four/shard-1.manifest.json \
      "$OUT"/four/shard-2.manifest.json "$OUT"/four/shard-3.manifest.json
    $VALIDATE --aggregate "$OUT/four/merged.manifest.json" "$OUT/one/merged.manifest.json"
    $VALIDATE --diff-stats "$OUT/four/merged.manifest.json" "$OUT/one/merged.manifest.json"
    ;;
  transports)
    for format in json binary; do
      # shellcheck disable=SC2086
      "$FLEET" $STUDY --shards 4 --format "$format" --drop-raw --check-single \
        --out "$OUT/$format" > "$OUT/$format.log"
      grep -q "raw-series window peak" "$OUT/$format.log" ||
        fail "$format run did not report the fold window"
      grep -q '"raw_series": "dropped"' "$OUT/$format/merged.manifest.json" ||
        fail "$format aggregate does not mark raw series dropped"
      $VALIDATE --aggregate "$OUT/$format/merged.manifest.json"
    done
    $VALIDATE --binary "$OUT"/binary/shard-*.manifest.bin
    $VALIDATE --diff-stats "$OUT/binary/merged.manifest.json" "$OUT/json/merged.manifest.json"
    ;;
  resume)
    # shellcheck disable=SC2086
    "$FLEET" $STUDY --shards 4 --out "$OUT/run" --quiet
    cp "$OUT/run/merged.manifest.json" "$OUT/merged-before-resume.json"
    rm "$OUT/run/shard-2.manifest.bin"
    # shellcheck disable=SC2086
    "$FLEET" $STUDY --shards 4 --out "$OUT/run" --resume > "$OUT/resume.log"
    for k in 0 1 3; do
      grep -q "shard $k: valid manifest found, skipping" "$OUT/resume.log" ||
        fail "shard $k was not folded from disk"
    done
    dispatched=$(grep "^fleet: dispatch shard" "$OUT/resume.log" | cut -d' ' -f4 | sort -u)
    [ "$dispatched" = "2:" ] || fail "dispatched shards '$dispatched', want only shard 2"
    $VALIDATE --diff-stats "$OUT/run/merged.manifest.json" "$OUT/merged-before-resume.json"
    ;;
  local-kill)
    local_kill_leg
    ;;
  tcp | tcp-kill)
    tcp_leg
    ;;
  *)
    fail "unknown leg (want split, transports, resume, local-kill, tcp or tcp-kill)"
    ;;
esac
echo "fleet_checks: $LEG OK ($OUT)"
