#!/usr/bin/env bash
# End-to-end smoke test for the replicated serving tier: train tiny
# models, start TWO perfpredd replicas and a perfpredgw fronting them,
# prove cache affinity (identical requests pin to one replica), reload
# through the gateway fan-out, then kill the owning replica mid-stream
# and assert every request keeps succeeding with scores bit-identical
# to offline scoring while the gateway ejects the corpse, and finally
# drain the tier in order (gateway first) checking both final reports.
# Needs only bash + curl + python3; CI runs it as the e2e-gateway job,
# and `make gateway` runs it locally.
set -euo pipefail

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do
    [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

say() { printf '\n== %s\n' "$*"; }

say "build binaries"
go build -o "$work" ./cmd/predict ./cmd/perfpredd ./cmd/perfpredgw ./cmd/specgen
cd "$work"
mkdir models

say "train tiny LR-E and TREE-B models on the Pentium D family"
./predict -train -family "Pentium D" -model LR-E -out models/pd-lre.json -seed 7
./predict -train -family "Pentium D" -model TREE-B -out models/pd-tree.json -seed 7

say "derive batch requests and offline reference scores"
./specgen -family "Pentium D" -seed 7 > pd.csv
./predict -model-file models/pd-lre.json -csv pd.csv -emit-request 4 > req.json
./predict -model-file models/pd-lre.json -json req.json > offline.json
./predict -model-file models/pd-tree.json -csv pd.csv -emit-request 4 > tree-req.json
./predict -model-file models/pd-tree.json -json tree-req.json > tree-offline.json

start_replica() { # $1 = index
  ./perfpredd -models models -addr 127.0.0.1:0 -addr-file "addr$1" \
    -report "serve-report$1.json" -queue 64 -max-batch 16 &
  local pid=$!
  pids+=("$pid")
  for _ in $(seq 1 100); do
    [ -s "addr$1" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "replica $1 exited before writing its addr file" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -s "addr$1" ] || { echo "replica $1 never wrote its addr file" >&2; exit 1; }
}

say "start two perfpredd replicas"
start_replica 1; d1pid=${pids[0]}
start_replica 2; d2pid=${pids[1]}
a1=$(cat addr1); a2=$(cat addr2)
echo "replicas at $a1 (pid $d1pid) and $a2 (pid $d2pid)"

say "start perfpredgw fronting both"
./perfpredgw -replicas "$a1,$a2" -addr 127.0.0.1:0 -addr-file gwaddr \
  -report gw-report.json -probe-interval 100ms -fail-threshold 2 \
  -readmit-threshold 2 &
gwpid=$!
pids+=("$gwpid")
for _ in $(seq 1 100); do
  [ -s gwaddr ] && break
  if ! kill -0 "$gwpid" 2>/dev/null; then
    echo "gateway exited before writing its addr file" >&2
    exit 1
  fi
  sleep 0.1
done
[ -s gwaddr ] || { echo "gateway never wrote its addr file" >&2; exit 1; }
base="http://$(cat gwaddr)"
echo "gateway at $base"

say "gateway healthz and /v1/models (proxied)"
curl -sfS "$base/healthz" | python3 -c '
import json, sys
assert json.load(sys.stdin)["status"] == "ok"
'
curl -sfS "$base/v1/models" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["generation"] == 1, r
assert {m["name"] for m in r["models"]} == {"pd-lre", "pd-tree"}, r
print("both models served through the gateway")
'

say "identical requests pin to one replica (cache affinity)"
owner=""
for i in $(seq 1 5); do
  rep=$(curl -sfS -o "online$i.json" -D - -X POST "$base/v1/predict" \
    --data-binary @req.json | tr -d '\r' | awk -F': ' 'tolower($1)=="x-perfpred-replica"{print $2}')
  [ -n "$rep" ] || { echo "request $i: no X-Perfpred-Replica header" >&2; exit 1; }
  if [ -z "$owner" ]; then owner=$rep; fi
  [ "$rep" = "$owner" ] || { echo "affinity broken: $rep vs $owner" >&2; exit 1; }
done
echo "all 5 identical requests landed on $owner"
python3 - <<'EOF'
import json
off = json.load(open("offline.json"))
for i in range(1, 6):
    on = json.load(open(f"online{i}.json"))
    assert on["predictions"] == off["predictions"], (i, on, off)
print("all 5 responses bit-identical to offline scoring")
EOF

say "TREE-B batch through the gateway is bit-identical"
curl -sfS -X POST "$base/v1/predict" --data-binary @tree-req.json > tree-online.json
python3 - <<'EOF'
import json
off = json.load(open("tree-offline.json"))
on = json.load(open("tree-online.json"))
assert on["predictions"] == off["predictions"], (on, off)
print("TREE-B predictions bit-identical through the gateway")
EOF

say "/admin/reload fans to both replicas"
curl -sfS -X POST "$base/admin/reload" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["ok"] and len(r["replicas"]) == 2, r
assert all(x["generation"] == 2 and not x.get("error") for x in r["replicas"]), r
print("both replicas at generation 2")
'

say "kill the owning replica mid-stream; requests must keep succeeding"
if [ "$owner" = "$a1" ]; then victim=$d1pid; survivor=$a2; else victim=$d2pid; survivor=$a1; fi
kill -9 "$victim"
# Immediately hammer the same request: the gateway must retry or
# re-route transparently — the client never sees the crash.
for i in $(seq 1 8); do
  curl -sfS -X POST "$base/v1/predict" --data-binary @req.json > "after$i.json"
done
python3 - <<'EOF'
import json
off = json.load(open("offline.json"))
for i in range(1, 9):
    on = json.load(open(f"after{i}.json"))
    assert on["predictions"] == off["predictions"], (i, on, off)
print("all 8 post-kill responses bit-identical — no request lost")
EOF

say "gateway ejects the dead replica"
for _ in $(seq 1 50); do
  healthy=$(curl -sfS "$base/gw/report" | python3 -c '
import json, sys
r = json.load(sys.stdin)
print(sum(1 for x in r["replicas"] if x["healthy"]))
')
  [ "$healthy" = "1" ] && break
  sleep 0.1
done
[ "$healthy" = "1" ] || { echo "dead replica never ejected (healthy=$healthy)" >&2; exit 1; }
echo "replica census settled: 1 healthy, traffic on $survivor"

say "SIGTERM drains the gateway first, then the surviving replica"
kill -TERM "$gwpid"
wait "$gwpid"
if [ "$survivor" = "$a1" ]; then spid=$d1pid; srep=serve-report1.json; else spid=$d2pid; srep=serve-report2.json; fi
kill -TERM "$spid"
wait "$spid"
python3 - <<EOF
import json
gw = json.load(open("gw-report.json"))
assert gw["version"] == 3 and len(gw["replicas"]) == 2, gw
assert "hedges" not in gw and "hedge_wins" not in gw and "shed" not in gw, gw
assert gw["requests"] >= 14, gw
assert gw["ejects"] >= 1, gw
healthy = [r for r in gw["replicas"] if r["healthy"]]
assert len(healthy) == 1, gw["replicas"]
sr = json.load(open("$srep"))
assert sr["version"] == 1 and sr["generation"] == 2, sr
print("gateway report: %d requests, %d retries, %d ejects; survivor drained at generation %d"
      % (gw["requests"], gw["retries"], gw["ejects"], sr["generation"]))
EOF

say "e2e gateway smoke: PASS"
