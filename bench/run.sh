#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the harness
# from source, then run it with the arguments given. Everything the build and
# the run write stays inside the checkout: the Go build cache and temp files
# under .bench_build/, run artefacts under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
if [[ ! -f "${root}/go.mod" || ! -d "${root}/cmd/harvestd" ]]; then
  echo "bench/run.sh: no harvest checkout around bench/ (need go.mod and cmd/harvestd): nothing to benchmark" >&2
  exit 2
fi
mkdir -p "${build}/bin" "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd "${root}/bench" && go build -o "${build}/bin/harvestbench" ./harvestbench)
cd "${root}"
exec "${build}/bin/harvestbench" "$@"
