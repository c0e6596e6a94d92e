#!/bin/sh
# Build the benchmark from source, then run it; all arguments are passed
# through (see main.ml). Run from the repository root.
set -e
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
