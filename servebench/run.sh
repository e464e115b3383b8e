#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and temporaries stay in .bench_build/ at
# the repository root, so a run reads and writes nothing outside the checkout
# apart from the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"

# The parent module must be present: the benchmark drives its packages.
if [[ ! -f "$root/go.mod" ]]; then
	echo "servebench: no go.mod at $root; the benchmark needs the repository it measures" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"

(
	cd "$here"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOMODCACHE="$out/modcache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/servebench" .
)
exec "$out/servebench" "$@"
