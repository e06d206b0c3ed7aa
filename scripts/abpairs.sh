#!/usr/bin/env bash
# A/B pairs of the repository's benchmark: the working tree against a
# parent revision, N pairs of `bench/run.sh` with the side that runs
# first flipped every pair, then for each end-to-end metric both sides'
# medians and quartiles, the change in the median, and how many pairs the
# working tree won (ties count for neither side).
#
#   scripts/abpairs.sh <parent-rev> <workload> [seed] [pairs]
#
# The parent is exported with `git archive` into .bench_build/ab/<sha>
# (ignored by git; nothing is registered in .git) and builds its own
# benchmark there, exactly as the driver does. Every run's result line is
# kept in .bench_build/ab/<sha>/runs-<workload>-seed<seed>.jsonl, parent
# and change alternating, so a report can quote them all.
set -euo pipefail

rev="${1:?usage: abpairs.sh <parent-rev> <workload> [seed] [pairs]}"
workload="${2:?usage: abpairs.sh <parent-rev> <workload> [seed] [pairs]}"
seed="${3:-2}"
pairs="${4:-10}"
command -v jq >/dev/null || { echo "abpairs: jq is required" >&2; exit 2; }

root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
parent="$root/.bench_build/ab/$sha"
if [ ! -f "$parent/bench/run.sh" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
seconds="$(jq -r .run_seconds "$root/BENCHMARK.json")"
log="$parent/runs-$workload-seed$seed.jsonl"
: >"$log"

run() { # <side> <checkout>
	local line
	line="$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -1)"
	jq -c --arg side "$1" '{side: $side} + .' <<<"$line" >>"$log"
	echo "  $1: $(jq -r '[.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" ")' <<<"$line") failed=$(jq -r .failed <<<"$line")" >&2
}

for i in $(seq 1 "$pairs"); do
	echo "pair $i/$pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent"
		run change "$root"
	else
		run change "$root"
		run parent "$parent"
	fi
done

echo "workload $workload, seed $seed, $pairs pairs, parent $sha"
jq -r -s --slurpfile bench "$root/BENCHMARK.json" '
	def sig: if . == 0 then 0 else . as $x | ($x | fabs | log10 | floor) as $e | pow(10; 4 - $e) as $k | ($x * $k | round) / $k end;
	def quantile(f): sort as $s | length as $n | (($n - 1) * f) as $pos | ($pos | floor) as $lo
		| if $lo + 1 >= $n then $s[$n - 1] else $s[$lo] + ($pos - $lo) * ($s[$lo + 1] - $s[$lo]) end;
	def spread: "\(quantile(0.5) | sig) [\(quantile(0.25) | sig), \(quantile(0.75) | sig)]";
	. as $runs | $bench[0].end_to_end[] | .name as $m | .better as $better
	| [$runs[] | select(.side == "parent") | .metrics[$m].value] as $p
	| [$runs[] | select(.side == "change") | .metrics[$m].value] as $c
	| ([range(0; [($p | length), ($c | length)] | min) | select($c[.] != $p[.])
		| select(($better == "higher") == ($c[.] > $p[.]))] | length) as $wins
	| ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
	| "\($m): parent \($p | spread)  change \($c | spread)  \(if $pm == 0 then 0 else ($cm - $pm) / $pm * 100 | sig end)%  wins \($wins)/\($p | length)  (\($better) is better)"
' "$log"
echo "failed operations: parent $(jq -s '[.[] | select(.side == "parent") | .failed] | add' "$log"), change $(jq -s '[.[] | select(.side == "change") | .failed] | add' "$log")"
echo "every run: $log"
