#!/usr/bin/env bash
# Builds the benchmark from source into bench/.build/ under the current
# directory (the root of a checkout) and runs it with the arguments
# given. Everything the build writes — the Go build cache and the go
# command's own counters included — stays inside that directory.
set -euo pipefail
# Without the program there is nothing to build: say so before any
# process is started.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench: no go.mod and internal/ here; run from the root of a checkout of the repository" >&2
	exit 1
fi
build=$PWD/bench/.build
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
# The go command starts a detached telemetry process once a day per
# configuration directory, and this one is new in every checkout: it
# would still be running when a failed build has already exited.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
