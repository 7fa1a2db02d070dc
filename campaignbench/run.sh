#!/usr/bin/env bash
# Builds the benchmark and the cobra CLI from the checkout it sits in,
# then runs one workload:
#
#   bash campaignbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash campaignbench/run.sh --selfcheck
#
# Campaign directories, result caches and the daemon socket live under
# .bench_work/ in the checkout. Where the host allows a private mount
# namespace, a tmpfs is mounted there for the lifetime of the run (it
# vanishes with the namespace), so no timing depends on the root disk;
# otherwise the directory stays on the checkout's own filesystem. The
# run prints which it got.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/simkit ] || [ ! -d bin ]; then
  echo "campaignbench: not a checkout of the repository (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./campaignbench/main.exe ./bin/main.exe 1>&2
work=.bench_work
mkdir -p "$work"
exe=_build/default/campaignbench/main.exe
args=(--work "$work" --cobra _build/default/bin/main.exe "$@")
# The stamp names the work root's filesystem type, as stat reads it
# once the mount is (or is not) in place.
if unshare --mount --propagation private true 2>/dev/null; then
  exec unshare --mount --propagation private sh -c \
    'mount -t tmpfs -o size=768m,mode=0700 campaignbench "$1" 2>/dev/null || true
     fs=$(stat -f -c %T "$1"); shift; exec "$@" --work-fs "$fs"' sh "$work" "$exe" "${args[@]}"
fi
exec "$exe" "${args[@]}" --work-fs "$(stat -f -c %T "$work")"
