#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the current directory,
# which is the root of a checkout. Everything it writes — the build cache,
# the binary, the durable stores of the wire workloads — goes under
# .bench_build/ there, which .gitignore lists.
#
#   bash bench/run.sh --workload wire_ingest --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh -workload all -seed 1 -o run.json
#   bash bench/run.sh compare old.json new.json
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"

# bench/ is a package of the repository's module, which needs nothing but
# the standard library. The build cache stays inside the checkout too.
export GOCACHE="$out/go-cache"
# The build stamps the git commit into the binary for the run document. Where
# git refuses to answer (a checkout below somebody else's repository) it goes
# without.
go build -o "$out/largemail-bench" ./bench >&2 ||
	go build -buildvcs=false -o "$out/largemail-bench" ./bench >&2

exec "$out/largemail-bench" "$@"
