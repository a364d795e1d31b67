#!/usr/bin/env bash
# Builds synthd, verifyplan, casegen and the perfbench driver from the
# checkout's sources into .bench_build/, then runs the driver with the
# given flags:
#
#   bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
#
# The Go build cache and Go's user configuration directory live in
# .bench_build/ too, so a run writes nothing outside the checkout. Go
# telemetry is switched off there: in its default mode the go command
# starts a detached child process that outlives the build. Binaries are
# rebuilt only when a Go source or module file changed since the last
# build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/runs" "$out/config/go/telemetry"
printf off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
cd "$root"
stamp=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum)
if [[ ! -x "$out/bin/perfbench" || "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]]; then
	rm -f "$out/bin/stamp"
	go build -o "$out/bin/synthd" ./cmd/synthd >&2
	go build -o "$out/bin/verifyplan" ./cmd/verifyplan >&2
	go build -o "$out/bin/casegen" ./cmd/casegen >&2
	(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
	echo "$stamp" >"$out/bin/stamp"
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
