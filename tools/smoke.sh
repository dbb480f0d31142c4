#!/usr/bin/env bash
# Smoke check: full build, the complete test suite, then `msc check` — every
# grid analysis (lint, account, deps, absint, cost) and the fuzz corpus on
# the full default grid.  It writes bench/<name>.json and exits non-zero if
# any invariant (conservation, dep/sound, absint/refines, lint errors, fuzz
# violations) or suite claim (refinement prunes suite-wide, fb beats ts,
# data_wait r >= +0.5) fails.  Independent python3 re-derivations then
# re-check the gates from the JSON alone, a guard fails if the committed
# bench/*.json files are stale, the mscd service loop runs, and the
# benchmark ledger runs at smoke scale against its goldens.  Run from
# anywhere:
#
#   tools/smoke.sh
#
# Each phase runs as a named step: the banner identifies the phase and the
# script stops at the first failing one, so a red smoke names its culprit.
# On a fuzz failure, `msc fuzz` shrinks the first offender and dumps a
# reproducer.
#
# The check is also wired as a dune alias (it writes into the build tree):
#
#   dune build @check
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  local name=$1
  shift
  echo "== smoke: $name =="
  "$@" || { echo "smoke: FAILED at $name" >&2; exit 1; }
}

step build dune build
step tests dune runtest
step check dune exec bin/msc.exe -- check

# belt and braces: re-derive the conservation check from the exported JSON,
# independently of the process that wrote it
check_account_json() {
  grep -q '"accounts":' bench/account.json || {
    echo "smoke: bench/account.json missing breakdown records" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
accounts = json.load(open("bench/account.json"))["accounts"]
cats = ["useful", "ctrl_squash", "data_wait", "mem_squash",
        "load_imbalance", "overhead", "idle"]
bad = [a for a in accounts
       if sum(a[c] for c in cats) != a["budget"]
       or any(a[c] < 0 for c in cats)]
for a in bad[:10]:
    print("smoke: conservation violated: %s %s %dPU" %
          (a["workload"], a["level"], a["num_pus"]), file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: conservation re-verified for %d records" % len(accounts))
EOF
  fi
}

# same for the dependence export: soundness means every observed pair is
# predicted, record by record
check_deps_json() {
  grep -q '"deps":' bench/deps.json || {
    echo "smoke: bench/deps.json missing dependence summaries" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
deps = json.load(open("bench/deps.json"))["deps"]
bad = [d for d in deps
       if d["violations"] != 0 or d["predicted_hit"] != d["observed"]]
for d in bad[:10]:
    print("smoke: dep/sound violated: %s %s" %
          (d["workload"], d["level"]), file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: dep soundness re-verified for %d records" % len(deps))
EOF
  fi
}

# and for the precision export: the refinement bound must hold row by row
# (refined mem edges never above the flow-insensitive baseline) and the
# suite-wide refinement must actually prune something
check_absint_json() {
  grep -q '"precision":' bench/absint.json || {
    echo "smoke: bench/absint.json missing precision rows" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
doc = json.load(open("bench/absint.json"))
rows = doc["precision"]
bad = [r for r in rows if r["mem_edges"] > r["fi_mem_edges"]
       or r["pruned"] != r["fi_mem_edges"] - r["mem_edges"]]
for r in bad[:10]:
    print("smoke: absint/refines violated: %s %s (%d > %d)" %
          (r["workload"], r["level"], r["mem_edges"], r["fi_mem_edges"]),
          file=sys.stderr)
if bad:
    sys.exit(1)
fi = sum(r["fi_mem_edges"] for r in rows)
ab = sum(r["mem_edges"] for r in rows)
total = doc["total"]
if (fi, ab) != (total["fi_mem_edges"], total["mem_edges"]):
    sys.exit("smoke: absint totals disagree with rows: %d/%d vs %s" %
             (fi, ab, total))
if ab >= fi:
    sys.exit("smoke: refinement pruned nothing suite-wide (%d >= %d)" %
             (ab, fi))
print("smoke: absint precision re-verified for %d rows: %d -> %d mem edges"
      % (len(rows), fi, ab))
EOF
  fi
}

# and for the cost export: re-derive the predicted-vs-measured data_wait
# Pearson from bench/cost.json joined against bench/account.json, fully
# independently of the OCaml Stat.pearson that computed the shipped value,
# and re-check the correlation and feedback gates from the raw numbers
check_cost_json() {
  grep -q '"cost":' bench/cost.json || {
    echo "smoke: bench/cost.json missing cost rows" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, math, sys
cost = json.load(open("bench/cost.json"))
accounts = json.load(open("bench/account.json"))["accounts"]
meas = {(a["workload"], a["level"]): a["data_wait"] / a["budget"]
        for a in accounts if a["num_pus"] == 8 and not a["in_order"]}
def pearson(pts):
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    vx = sum((x - mx) ** 2 for x, _ in pts)
    vy = sum((y - my) ** 2 for _, y in pts)
    cov = sum((x - mx) * (y - my) for x, y in pts)
    if vx <= 0 or vy <= 0:
        sys.exit("smoke: degenerate series in cost join")
    return cov / math.sqrt(vx * vy)
shipped = {(c["level"], c["category"]): c["pearson"]
           for c in cost["correlation"]}
for level in ["cf", "dd", "ts"]:
    pts = [(r["pred_data_wait"], meas[(r["workload"], r["level"])])
           for r in cost["cost"]
           if r["level"] == level and r["num_pus"] == 8
           and not r["in_order"] and (r["workload"], r["level"]) in meas]
    if len(pts) < 2:
        sys.exit("smoke: too few joined rows at level %s" % level)
    r = pearson(pts)
    want = shipped.get((level, "data_wait"))
    if want is None or abs(r - want) > 1e-6:
        sys.exit("smoke: %s data_wait pearson mismatch: re-derived %+.6f, "
                 "shipped %s" % (level, r, want))
    if r < 0.5:
        sys.exit("smoke: %s data_wait pearson %+.3f < +0.5" % (level, r))
geo = {g["level"]: g["geomean"] for g in cost["geomean_ipc"]}
if not ("fb" in geo and "ts" in geo and geo["fb"] > geo["ts"]):
    sys.exit("smoke: fb geomean %s does not beat ts geomean %s" %
             (geo.get("fb"), geo.get("ts")))
print("smoke: cost model re-verified: data_wait r matches and >= +0.5 at "
      "cf/dd/ts; fb geomean %.3f > ts %.3f" % (geo["fb"], geo["ts"]))
EOF
  fi
}

step account-json check_account_json
step deps-json check_deps_json
step absint-json check_absint_json
step cost-json check_cost_json

# the committed bench/*.json files must be what msc check just wrote: a
# change that moves a number has to commit the moved file with it
check_committed() {
  if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "smoke: not a git checkout; skipping the committed-files guard"
    return 0
  fi
  git diff --exit-code --stat -- 'bench/*.json' || {
    echo "smoke: msc check changed committed bench/*.json files" >&2
    return 1
  }
}

step committed check_committed

# service smoke: boot the mscd daemon on a throwaway socket, drive it with
# the deterministic load generator, verify the run from the machine-readable
# report (zero errors, dedup observed, tail latency present), then check the
# SIGTERM drain path exits cleanly.  The daemon and the step's files live
# only as long as the step: the body runs in a subshell whose EXIT trap
# kills a daemon still running and removes the socket, the load report and
# the daemon log, whichever way the step ends.
check_service() (
  local sock report daemon_log pid=
  sock=$(mktemp -u /tmp/mscd-smoke-XXXXXX.sock)
  report=$(mktemp /tmp/mscd-smoke-XXXXXX.json)
  daemon_log=$(mktemp /tmp/mscd-smoke-XXXXXX.log)
  cleanup() {
    if [ -n "$pid" ]; then
      kill -KILL "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
    rm -f "$sock" "$report" "$daemon_log"
  }
  trap cleanup EXIT
  dune exec bin/msc.exe -- daemon --socket "$sock" >"$daemon_log" 2>&1 &
  pid=$!
  local i=0
  until [ -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
      echo "smoke: mscd did not come up on $sock" >&2
      cat "$daemon_log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if ! dune exec tools/loadgen.exe -- --socket "$sock" -n 600 -c 8 \
      --seed 42 --json "$report"; then
    echo "smoke: loadgen reported request failures" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$report" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))
if r["requests"] < 500:
    sys.exit("smoke: loadgen sent only %d requests (< 500)" % r["requests"])
if r["errors"] != 0:
    sys.exit("smoke: service returned %d errors" % r["errors"])
server = r["server"]
if not isinstance(server, dict) or server.get("dedup_hits", 0) <= 0:
    sys.exit("smoke: no server-side dedup hits on a repeating key space")
lat = r["latency"]
for q in ("p50", "p99"):
    if not isinstance(lat.get(q), (int, float)) or lat[q] <= 0:
        sys.exit("smoke: loadgen latency report missing %s" % q)
print("smoke: service served %d requests, 0 errors, %d dedup hits, "
      "p50 %.0fus p99 %.0fus" %
      (r["requests"], server["dedup_hits"], lat["p50"], lat["p99"]))
EOF
  fi
  kill -TERM "$pid"
  local rc=0
  wait "$pid" || rc=$?
  pid=
  if [ "$rc" -ne 0 ]; then
    echo "smoke: mscd SIGTERM drain exited $rc (want 0)" >&2
    cat "$daemon_log" >&2
    exit 1
  fi
  if [ -S "$sock" ]; then
    echo "smoke: mscd left its socket behind after drain" >&2
    exit 1
  fi
  echo "smoke: mscd drained cleanly on SIGTERM"
)

step service check_service

# the per-layer benchmark at minimum scale, outputs checked against its
# goldens
step benchmark dune build @benchmark/benchmark-smoke

echo "smoke: OK"
