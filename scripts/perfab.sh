#!/usr/bin/env bash
# Same-host A/B of the simulator benchmark. Builds <base-rev> in a
# temporary git worktree, then alternates perfbench runs of the base
# revision and of this checkout (head), `pairs` pairs of 10 seconds each,
# and compares one end-to-end metric (committed_minst_per_s by default):
#
#   bash scripts/perfab.sh <base-rev> <workload> [pairs] [seed] [metric]
#   bash scripts/perfab.sh HEAD~1 timing-x4 5 1
#   bash scripts/perfab.sh HEAD~1 checked-gen 5 1 runs_per_s
#   bash scripts/perfab.sh HEAD~1 sampled-x4 5 1 covered_minst_per_s
#
# Run it from the root of a checkout; head is the working tree as it
# stands, uncommitted changes included. Odd pairs run base first, even
# pairs head first, so a drift in host load does not favour one side.
# The script prints, per pair, both values of the metric and their ratio
# (head/base), then in how many pairs head's value was the higher, both
# medians and whether every run's result digest matches. The metric is
# any end-to-end metric perfbench reports for the workload; for one
# where lower is better (run_ms_p50, peak_rss_mb), head improves when
# the ratio falls below 1. It passes no judgement: it has no threshold
# and exits non-zero only when a run cannot be built or started.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
	echo "usage: bash scripts/perfab.sh <base-rev> <workload> [pairs] [seed] [metric]" >&2
	exit 2
fi
if [[ ! -f go.mod || ! -f perfbench/run.sh ]]; then
	echo "perfab: run from the root of a pok checkout" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=${3:-5} seed=${4:-1} metric=${5:-committed_minst_per_s}
if ! [[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]]; then
	echo "perfab: pairs must be a positive integer and seed a non-negative one" >&2
	exit 2
fi
if ! [[ $metric =~ ^[a-z0-9_.]+$ ]]; then
	echo "perfab: metric must be a perfbench metric name such as runs_per_s" >&2
	exit 2
fi
base_sha=$(git rev-parse --verify --quiet "$base_rev^{commit}") || {
	echo "perfab: unknown revision $base_rev" >&2
	exit 2
}

head_dir=$PWD
tmp=$(mktemp -d)
base_dir=$tmp/base
cleanup() {
	git -C "$head_dir" worktree remove --force "$base_dir" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$base_dir" "$base_sha"

# bench <dir> runs one 10-second perfbench run in <dir> and prints
# "<metric value> <digest>".
bench() {
	local out value digest
	out=$(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0)
	value=$(tail -n 1 <<<"$out" | grep -o "\"$metric\":{\"value\":[^,}]*" | sed 's/.*://')
	digest=$(awk '/^digest / { for (i = 1; i < NF; i++) if ($i ~ /:$/) print $(i + 1) }' <<<"$out")
	if [[ -z $value || -z $digest ]]; then
		echo "perfab: no $metric value or digest in the perfbench output in $1:" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "$value $digest"
}

# Build both sides before the first measured run.
for dir in "$base_dir" "$head_dir"; do
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --setup-probe >/dev/null)
done

echo "perfab: $workload seed $seed, $metric, $pairs pairs of 10 s; base $base_sha, head $(git rev-parse HEAD) + working tree"
printf '%-5s %-6s %14s %14s %10s\n' pair first base head head/base
base_vals=() head_vals=() digests=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		first=base
		rb=$(bench "$base_dir")
		rh=$(bench "$head_dir")
	else
		first=head
		rh=$(bench "$head_dir")
		rb=$(bench "$base_dir")
	fi
	read -r b bd <<<"$rb"
	read -r h hd <<<"$rh"
	base_vals+=("$b") head_vals+=("$h") digests+=("$bd" "$hd")
	printf '%-5s %-6s %14.4f %14.4f %10.3f\n' "$i" "$first" "$b" "$h" "$(awk -v b="$b" -v h="$h" 'BEGIN { print h / b }')"
done

median() {
	printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
wins=0
for ((i = 0; i < pairs; i++)); do
	if awk -v b="${base_vals[i]}" -v h="${head_vals[i]}" 'BEGIN { exit !(h > b) }'; then
		wins=$((wins + 1))
	fi
done
echo "head higher in $wins of $pairs pairs"
mb=$(median "${base_vals[@]}")
mh=$(median "${head_vals[@]}")
printf 'median %s: base %.4f, head %.4f, head/base %.3f\n' "$metric" "$mb" "$mh" "$(awk -v b="$mb" -v h="$mh" 'BEGIN { print h / b }')"
if [[ $(printf '%s\n' "${digests[@]}" | sort -u | wc -l) -eq 1 ]]; then
	echo "digests: match (${digests[0]})"
else
	echo "digests: DIFFER (base ${digests[0]}, head ${digests[1]})"
fi
