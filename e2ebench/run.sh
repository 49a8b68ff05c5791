#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#	bash e2ebench/run.sh --workload engine-mix --seed 1 --seconds 15 --trace 0
#
# The Go build cache, fixtures and per-run working files stay under
# .bench_build/e2ebench in the current directory; nothing is fetched.
set -euo pipefail

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C e2ebench -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
