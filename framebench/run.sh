#!/usr/bin/env bash
# Builds the frame-pipeline benchmark from the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash framebench/run.sh --workload tram --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (compiler cache, binary, segment files, temporary files) stays
# under .bench_build/ in that root. Outside a checkout of the repository
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOTELEMETRY=off

bin="$out/framebench.bin"
tmpbin="$out/framebench.bin.$$"
(cd "$root/framebench" && go build -o "$tmpbin" .) >&2
mv -f "$tmpbin" "$bin"
exec "$bin" --dir "$out" "$@"
