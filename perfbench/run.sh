#!/usr/bin/env bash
# Builds the benchmark and the malnetd under test from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under $CARGO_TARGET_DIR (default .bench_build), including
# the Go build cache and the serve fixture lake.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a MalNet checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/perfbench
mkdir -p "$out/bin" "$out/home" "$out/cache"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-trimpath GOWORK=off

first=0
[ -x "$out/bin/perfbench" ] || first=1
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
go -C "$root/perfbench" build -o "$out/bin/malnetd" malnet/cmd/malnetd
key=$(cat "$out/bin/perfbench" "$out/bin/malnetd" | sha256sum | cut -c1-16)

args=(-cache "$out/cache" -code-key "$key" -malnetd "$out/bin/malnetd")
# The first run after a build also writes the serve fixture, so no
# later run pays for it.
if [ "$first" = 1 ]; then
	"$out/bin/perfbench" "${args[@]}" -make-fixture >&2
fi
exec "$out/bin/perfbench" "${args[@]}" "$@"
