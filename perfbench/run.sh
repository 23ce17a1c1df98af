#!/usr/bin/env bash
# Builds the CLIs under test and the perfbench program from source, then
# runs one benchmark workload. Everything the build and the run leave
# behind goes under .bench_build/ at the repository root.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload report|replay|serve --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result; see perfbench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"

# Keep the Go build cache, module cache and the go command's own config
# and telemetry files inside the checkout, and never reach for the
# network: the module has no external dependencies.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root"
go build -o "$out/bin/" ./cmd/fsreport ./cmd/fstrace ./cmd/fsanalyze ./cmd/fscachesim ./cmd/fstraced
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
