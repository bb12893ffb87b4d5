#!/usr/bin/env bash
# End-to-end smoke test for the serving stack: train a tiny model with
# the predict CLI, start perfpredd against it, exercise every endpoint
# over real HTTP, assert the daemon's predictions are bit-identical to
# the offline scoring path, then drain it with SIGTERM and check the
# final ServeReport. Needs only bash + curl + python3 (for JSON
# assertions) and runs in a few seconds; CI runs it as the e2e-serve
# job, and `make e2e` runs it locally.
set -euo pipefail

work=$(mktemp -d)
dpid=""
cleanup() {
  if [ -n "$dpid" ] && kill -0 "$dpid" 2>/dev/null; then
    kill -9 "$dpid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

say() { printf '\n== %s\n' "$*"; }

say "build binaries"
go build -o "$work" ./cmd/predict ./cmd/perfpredd ./cmd/specgen
cd "$work"
mkdir models

say "train tiny LR-E and TREE-B models on the Pentium D family"
./predict -train -family "Pentium D" -model LR-E -out models/pd-lre.json -seed 7
./predict -train -family "Pentium D" -model TREE-B -out models/pd-tree.json -seed 7

say "derive batch requests from real generated data"
./specgen -family "Pentium D" -seed 7 > pd.csv
./predict -model-file models/pd-lre.json -csv pd.csv -emit-request 4 > req.json
./predict -model-file models/pd-lre.json -json req.json > offline.json
./predict -model-file models/pd-tree.json -csv pd.csv -emit-request 4 > tree-req.json
./predict -model-file models/pd-tree.json -json tree-req.json > tree-offline.json

say "start perfpredd"
./perfpredd -models models -addr 127.0.0.1:0 -addr-file addr -report serve-report.json \
  -queue 64 -max-batch 16 &
dpid=$!
for _ in $(seq 1 100); do
  [ -s addr ] && break
  # Fail fast if the daemon already died (bad flags, unloadable models):
  # without this check a startup crash burns the full 10s timeout and
  # reports the misleading "never wrote addr file".
  if ! kill -0 "$dpid" 2>/dev/null; then
    wait "$dpid" || true
    dpid=""
    echo "daemon exited before writing the addr file" >&2
    exit 1
  fi
  sleep 0.1
done
[ -s addr ] || { echo "daemon never wrote addr file" >&2; exit 1; }
base="http://$(cat addr)"
echo "daemon at $base"

say "healthz"
curl -sfS "$base/healthz" | python3 -c '
import json, sys
assert json.load(sys.stdin)["status"] == "ok"
'

say "/v1/models lists both trained models with their family tags"
curl -sfS "$base/v1/models" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["generation"] == 1, r
by_name = {m["name"]: m for m in r["models"]}
assert set(by_name) == {"pd-lre", "pd-tree"}, by_name
lre, tree = by_name["pd-lre"], by_name["pd-tree"]
assert lre["kind"] == "LR-E" and lre["family"] == "linreg/v1", lre
assert tree["kind"] == "TREE-B" and tree["family"] == "tree/v1", tree
for m in (lre, tree):
    assert m["columns"] > 0 and len(m["fields"]) > 0, m
print("models: pd-lre (LR-E, linreg/v1), pd-tree (TREE-B, tree/v1)")
'

say "/v1/predict batch is bit-identical to offline scoring"
curl -sfS -X POST "$base/v1/predict" --data-binary @req.json > online.json
python3 - <<'EOF'
import json, math
off = json.load(open("offline.json"))
on = json.load(open("online.json"))
assert on["model"] == off["model"] == "pd-lre"
assert on["kind"] == "LR-E" and on["n"] == 4
assert all(math.isfinite(y) for y in on["predictions"])
assert on["predictions"] == off["predictions"], (on, off)
print("4 predictions bit-identical:", on["predictions"])
EOF

say "/v1/predict TREE-B batch is bit-identical to offline scoring"
curl -sfS -X POST "$base/v1/predict" --data-binary @tree-req.json > tree-online.json
python3 - <<'EOF'
import json, math
off = json.load(open("tree-offline.json"))
on = json.load(open("tree-online.json"))
assert on["model"] == off["model"] == "pd-tree"
assert on["kind"] == "TREE-B" and on["n"] == 4
assert all(math.isfinite(y) for y in on["predictions"])
assert on["predictions"] == off["predictions"], (on, off)
print("4 TREE-B predictions bit-identical:", on["predictions"])
EOF

say "/v1/predict single row"
python3 -c '
import json
req = json.load(open("req.json"))
json.dump({"model": req["model"], "row": req["rows"][0]}, open("single.json", "w"))
'
curl -sfS -X POST "$base/v1/predict" --data-binary @single.json | python3 -c '
import json, sys
off = json.load(open("offline.json"))
r = json.load(sys.stdin)
assert r["n"] == 1 and r["prediction"] == off["predictions"][0], (r, off)
print("single prediction matches batch row 0")
'

say "malformed request is a clean 400"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/predict" --data-binary '{"model":')
[ "$code" = "400" ] || { echo "malformed request returned $code, want 400" >&2; exit 1; }

say "/metrics counts the traffic"
curl -sfS -D metrics.hdr "$base/metrics" | python3 -c '
import sys
hdr = open("metrics.hdr").read().lower()
assert "content-type: text/plain; version=0.0.4" in hdr, hdr
c = {}
for line in sys.stdin:
    if line.startswith("#"):
        continue
    name, value = line.split()
    c[name] = float(value)
assert c["perfpred_serve_requests"] >= 2, c
assert c["perfpred_serve_predictions"] >= 5, c
assert c["perfpred_serve_shed"] == 0, c
assert c["perfpred_serve_latency_seconds_count"] >= 2, c
print("serve.requests=%d serve.predictions=%d" % (c["perfpred_serve_requests"], c["perfpred_serve_predictions"]))
'

say "/admin/reload bumps the generation atomically"
curl -sfS -X POST "$base/admin/reload" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["generation"] == 2 and r["models"] == ["pd-lre", "pd-tree"], r
print("reloaded: generation 2")
'

say "SIGTERM drains cleanly and writes the ServeReport"
kill -TERM "$dpid"
wait "$dpid"
dpid=""
python3 - <<'EOF'
import json
r = json.load(open("serve-report.json"))
assert r["version"] == 1
assert r["models"] == ["pd-lre", "pd-tree"] and r["generation"] == 2
# Every served row was scored by the batcher or answered by the cache
# (the single row repeats batch row 0, so it is a hit).
served = r["predictions"] + r["cache"]["hits"]
assert r["requests"] >= 3 and served >= 9, r
assert r["cache"]["hits"] >= 1, r["cache"]
assert r["shed"] == 0 and r["errors"] == 0 and r["reloads"] == 1
assert r["batch_size"]["count"] >= 2
print("serve report ok: %d requests, %d rows served (%d cache hits), %d reloads"
      % (r["requests"], served, r["cache"]["hits"], r["reloads"]))
EOF

say "e2e serve smoke: PASS"
