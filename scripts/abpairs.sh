#!/usr/bin/env bash
# A/B pairs of the repository's benchmark: the working tree against a
# parent revision, N pairs of `bench/run.sh` with the side that runs
# first flipped every pair, then for each end-to-end metric both sides'
# medians and quartiles, the change in the median, and how many pairs the
# working tree won (ties count for neither side). A second line per
# metric shows run-order drift: each side's median over the first and
# over the second half of the pairs, and in how many pairs the side that
# ran second read better (parent runs first in odd pairs, change in even
# ones; ties count for neither).
#
#   scripts/abpairs.sh <parent-rev> <workload> [seed] [pairs]
#
# Both sides are built the same way, each by its own bench/run.sh in a
# directory of its own, as the driver builds a checkout: the parent is
# exported with `git archive` into .bench_build/ab/<sha>/parent, and the
# change is a fresh copy of the working tree's files (tracked and
# untracked, not ignored) in .bench_build/ab/<sha>/change. Both paths
# have the same length, neither holds a .git, and nothing is written to
# the repository's .git. With a clean tree, `abpairs.sh HEAD` is an A/A
# run. Every run's result line is kept in
# .bench_build/ab/<sha>/runs-<workload>-seed<seed>.jsonl, parent and
# change alternating, so a report can quote them all, and every run's
# per-round log beside it in runs-<workload>-seed<seed>.stderr; a run's
# FAILED lines (why an operation failed) are also printed as it ends.
set -euo pipefail

rev="${1:?usage: abpairs.sh <parent-rev> <workload> [seed] [pairs]}"
workload="${2:?usage: abpairs.sh <parent-rev> <workload> [seed] [pairs]}"
seed="${3:-2}"
pairs="${4:-10}"
command -v jq >/dev/null || { echo "abpairs: jq is required" >&2; exit 2; }

root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
ab="$root/.bench_build/ab/$sha"
parent="$ab/parent"
change="$ab/change"
if [ ! -f "$parent/bench/run.sh" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
rm -rf "$change"
mkdir -p "$change"
git -C "$root" ls-files -z --cached --others --exclude-standard |
	tar -C "$root" --null --ignore-failed-read --warning=no-failed-read -T - -cf - | tar -x -C "$change"
seconds="$(jq -r .run_seconds "$root/BENCHMARK.json")"
log="$ab/runs-$workload-seed$seed.jsonl"
errlog="$ab/runs-$workload-seed$seed.stderr"
: >"$log"
: >"$errlog"

run() { # <side> <checkout>
	local line err="$ab/last-run.stderr"
	line="$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>"$err" | tail -1)"
	{ echo "== $1"; cat "$err"; } >>"$errlog"
	grep 'FAILED:' "$err" >&2 || true
	jq -c --arg side "$1" '{side: $side} + .' <<<"$line" >>"$log"
	echo "  $1: $(jq -r '[.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" ")' <<<"$line") failed=$(jq -r .failed <<<"$line")" >&2
}

for i in $(seq 1 "$pairs"); do
	echo "pair $i/$pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent"
		run change "$change"
	else
		run change "$change"
		run parent "$parent"
	fi
done

echo "workload $workload, seed $seed, $pairs pairs, parent $sha"
jq -r -s --slurpfile bench "$root/BENCHMARK.json" '
	def sig: if . == 0 then 0 else . as $x | ($x | fabs | log10 | floor) as $e | pow(10; 4 - $e) as $k | ($x * $k | round) / $k end;
	def quantile(f): sort as $s | length as $n | (($n - 1) * f) as $pos | ($pos | floor) as $lo
		| if $lo + 1 >= $n then $s[$n - 1] else $s[$lo] + ($pos - $lo) * ($s[$lo + 1] - $s[$lo]) end;
	def spread: "\(quantile(0.5) | sig) [\(quantile(0.25) | sig), \(quantile(0.75) | sig)]";
	def med: if length == 0 then "-" else quantile(0.5) | sig end;
	def better($better): .[0] != .[1] and (($better == "higher") == (.[0] > .[1]));
	. as $runs | $bench[0].end_to_end[] | .name as $m | .better as $better
	| [$runs[] | select(.side == "parent") | .metrics[$m].value] as $p
	| [$runs[] | select(.side == "change") | .metrics[$m].value] as $c
	| ([($p | length), ($c | length)] | min) as $n | ($n / 2 | floor) as $h
	| ([range(0; $n) | [$c[.], $p[.]] | select(better($better))] | length) as $wins
	| ([range(0; $n) | if . % 2 == 0 then [$c[.], $p[.]] else [$p[.], $c[.]] end
		| select(better($better))] | length) as $later
	| ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
	| "\($m): parent \($p | spread)  change \($c | spread)  \(if $pm == 0 then 0 else ($cm - $pm) / $pm * 100 | sig end)%  wins \($wins)/\($p | length)  (\($better) is better)\n"
		+ "  run order: medians over the first and second half of the pairs: parent \($p[:$h] | med) then \($p[$h:$n] | med), change \($c[:$h] | med) then \($c[$h:$n] | med); the side that ran second read better in \($later)/\($n) pairs"
' "$log"
echo "failed operations: parent $(jq -s '[.[] | select(.side == "parent") | .failed] | add' "$log"), change $(jq -s '[.[] | select(.side == "change") | .failed] | add' "$log")"
echo "every run: $log (logs: $errlog)"
