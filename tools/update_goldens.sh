#!/usr/bin/env sh
# Regenerate tests/golden/ from a build tree: builds it, then runs every
# golden ctest (label `golden`) with WILE_UPDATE_GOLDENS=1, so each
# program's stdout, and the JSON a --quick bench writes, replaces its
# golden file instead of being compared with it. Review the diff of
# tests/golden/ before committing: every moved line needs a reason.
# Usage: tools/update_goldens.sh [build-dir]   (default: build/)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake --build "$build_dir" -j "$jobs"
WILE_UPDATE_GOLDENS=1 ctest --test-dir "$build_dir" -L golden --output-on-failure -j "$jobs"
git -C "$repo_root" status --short -- tests/golden
