#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it from the root of the checkout. Everything it writes (Go
# build cache, binary, fixtures, span files) stays under .bench_build/
# there. Standard output carries only the benchmark's own lines; the
# build reports on standard error, and a failed build exits non-zero
# before any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go tool's cache, scratch files and own configuration stay in there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# The driver's checkout is not a git work tree: record the revision when
# there is one, and never let the go tool's own VCS stamping fail a build.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/frogbench" .) 1>&2
cd "$root"
exec "$out/frogbench" "$@"
