#!/bin/sh
# bench-ab.sh BASE [PAIRS] [SECONDS] — paired before/after run of the
# benchmark harness (bench/README.md), the measurement a performance change
# has to quote.
#
# BASE (any git revision) is unpacked with `git archive` into a temporary
# directory and both commits' harnesses are built once. Each of PAIRS pairs
# (default 10) makes one full record per side with `-seed <pair number>
# -seconds SECONDS` (default 8), alternating which side goes first so drift on
# the host lands on both. The records stay in bench/out/ab/ and the run ends with
#
#	go run ./bench -compare base-1.json,...,base-N.json new-1.json,...,new-N.json
#
# whose exit status (non-zero on a `worse` verdict) is the script's.
set -eu

base=${1:?usage: bench-ab.sh BASE [PAIRS] [SECONDS]}
pairs=${2:-10}
seconds=${3:-8}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench)
(cd "$root" && go build -o "$tmp/bench-new" ./bench)

out=$root/bench/out/ab
rm -rf "$out"
mkdir -p "$out"

# run SIDE DIR PAIR: one full record of SIDE's harness, run from its own tree.
run() {
	echo "pair $3: $1"
	(cd "$2" && "$tmp/bench-$1" -seed "$3" -seconds "$seconds" \
		-outdir "$out/$1-$3" -out "$out/$1-$3.json" >"$out/$1-$3.log")
}

bases= news=
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base" "$i"
		run new "$root" "$i"
	else
		run new "$root" "$i"
		run base "$tmp/base" "$i"
	fi
	bases=${bases:+$bases,}$out/base-$i.json
	news=${news:+$news,}$out/new-$i.json
	i=$((i + 1))
done

cd "$root"
go run ./bench -compare "$bases" "$news"
