#!/usr/bin/env bash
# Prints the repository's non-test Go line counts: one line per package
# directory, the six serving-harness packages' total against ROADMAP
# item 8's target, and the repository total, bench/ included. A line is
# a physical line (wc -l) of a .go file that is not a _test.go file;
# hidden directories (build outputs, CI) and testdata are skipped.
# Informational only: it always exits 0 once it has counted. Run from
# anywhere in the checkout:
#
#   bash scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

harness="internal/serve internal/predcache internal/gateway internal/loadtest internal/obs internal/faultinject"
target=5257

counts=$(
	find . \( -name '.?*' -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print |
		while IFS= read -r f; do
			dir=${f%/*}
			dir=${dir#./}
			printf '%s %s\n' "$dir" "$(wc -l <"$f")"
		done |
		awk '{ n[$1] += $2 } END { for (d in n) printf "%7d  %s\n", n[d], d }' |
		sort -k2
)

echo "non-test Go lines per package:"
echo "$counts"
echo "$counts" | awk -v harness="$harness" -v target="$target" '
BEGIN { n = split(harness, h, " "); for (i = 1; i <= n; i++) in_harness[h[i]] = 1 }
{ total += $1; if ($2 in in_harness) sum += $1 }
END {
	printf "harness (serve, predcache, gateway, loadtest, obs, faultinject): %d, target %d, %+d\n", sum, target, sum - target
	printf "repository total: %d\n", total
}'
