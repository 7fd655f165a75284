#!/usr/bin/env bash
# Link census of src/: which out-of-line src/ functions no binary links,
# and which only test binaries link.
#
#   tools/link_census.sh [build-dir]      # default: <repo>/build-census
#
# Builds every target of the repository, and perfbench, at -O0 -fno-inline
# with one section per function, links with --gc-sections, and compares
# the global text symbols that src/'s objects define with the symbols each
# linked binary keeps. A program is a bench, an example, tools/wile_inspect
# or perfbench; every binary of tests/ is a test.
#
# Exits 1 when some src/ function is linked by no binary. The list of
# functions that only test binaries link is printed and never fails the
# run. Header-only code (inline functions, templates) is invisible to this
# method: it is emitted weak into every user, so only strong symbols count.
set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${1:-$repo_root/build-census}"
jobs="$(nproc 2>/dev/null || echo 4)"

flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-fno-inline -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$repo_root" -B "$build_dir" "${flags[@]}" >/dev/null
cmake --build "$build_dir" -j "$jobs" >/dev/null
cmake -S "$repo_root/perfbench" -B "$build_dir/perfbench" "${flags[@]}" >/dev/null
cmake --build "$build_dir/perfbench" -j "$jobs" >/dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Strong global functions that src/'s static libraries define.
find "$build_dir/src" -name '*.a' -print0 |
  xargs -0 nm --defined-only --format=posix 2>/dev/null |
  awk '$2 == "T" { print $1 }' | sort -u >"$work/src"

executables() {
  find "$@" -maxdepth 1 -type f -perm -u+x 2>/dev/null | sort
}
defined() {
  local bin
  for bin in "$@"; do nm --defined-only --format=posix "$bin" | awk '{ print $1 }'; done |
    sort -u
}

mapfile -t programs < <(executables "$build_dir/bench" "$build_dir/examples" \
                                    "$build_dir/tools" "$build_dir/perfbench")
mapfile -t tests < <(executables "$build_dir/tests")
if [ "${#programs[@]}" -eq 0 ] || [ "${#tests[@]}" -eq 0 ]; then
  echo "link_census: no binaries found under $build_dir" >&2
  exit 2
fi
defined "${programs[@]}" >"$work/programs"
defined "${tests[@]}" >"$work/tests"

comm -23 "$work/src" "$work/programs" >"$work/not_in_programs"
comm -23 "$work/not_in_programs" "$work/tests" >"$work/unlinked"
comm -12 "$work/not_in_programs" "$work/tests" >"$work/test_only"

# One line per function: a constructor's complete and base-object
# symbols demangle to the same name.
functions() { c++filt <"$1" | sort -u; }

echo "link census: $(functions "$work/src" | wc -l) out-of-line src/ functions," \
     "${#programs[@]} programs, ${#tests[@]} test binaries"
echo
echo "linked only by test binaries ($(functions "$work/test_only" | wc -l)):"
functions "$work/test_only" | sed 's/^/  /'
echo
echo "linked by no binary ($(functions "$work/unlinked" | wc -l)):"
functions "$work/unlinked" | sed 's/^/  /'

[ ! -s "$work/unlinked" ]
