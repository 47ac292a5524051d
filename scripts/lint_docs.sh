#!/usr/bin/env bash
# Docs lint: fail when docs/*.md or README.md reference a build target,
# benchmark, or local file that does not exist. Pure shell + grep so it
# runs anywhere the repo checks out (CI runs it without configuring CMake).
#
# Checks, in order:
#   1. backticked tokens shaped like target names (opsched_*, example_*,
#      *_test) must name a real CMake target;
#   2. backticked tokens shaped like benchmark names (fig*/table*/ext_*/
#      micro_*/ablation*) must have a bench/<name>.cpp source;
#   3. relative markdown links must resolve on disk;
#   4. every backticked snake_case token (a knob, function, metric or file
#      stem) must occur as a word somewhere in the code trees below, or be
#      a CMake target — so docs cannot keep naming an identifier the code
#      has dropped.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md docs/*.md)
fail=0

# --- the set of real target names, derived the same way CMake derives them
valid_targets=$'opsched_all\nopsched_warnings\nopsched_benchmarks\nopsched_bench_runner\nopsched_bench\nopsched_cli'
for d in src/*/; do
  valid_targets+=$'\n'"opsched_$(basename "$d")"
done
for f in examples/*.cpp; do
  valid_targets+=$'\n'"example_$(basename "${f%.cpp}")"
done
while IFS= read -r f; do
  rel="${f#tests/}"
  rel="${rel%.cpp}"
  valid_targets+=$'\n'"${rel//\//_}"
done < <(find tests -name '*_test.cpp')

# --- every identifier-shaped word the code trees contain (check 4)
code_words="$(grep -rhoE '[A-Za-z0-9_]+' src bench examples tests perfbench \
  scripts | sort -u)"

for doc in "${docs[@]}"; do
  # 1+2: backticked identifier-ish tokens.
  while IFS= read -r tok; do
    case "$tok" in
      # `opsched_cli bench` etc. appear as plain words too; only the exact
      # token forms below are treated as target references.
      opsched_*|example_*)
        if ! grep -qxF "$tok" <<<"$valid_targets"; then
          echo "$doc: unknown target \`$tok\`"
          fail=1
        fi
        ;;
      *_test)
        if ! grep -qxF "$tok" <<<"$valid_targets"; then
          echo "$doc: unknown test target \`$tok\`"
          fail=1
        fi
        ;;
      # host_corun / multi_tenant / serve_churn / serve_slo are listed
      # explicitly:
      # host_*, multi_*, and serve_* would false-positive on non-benchmark
      # tokens like host_logical_cores, multi_team_capacity, or serve_job
      # (docs prose).
      # serve_slo is exact: serve_slo_* names the bench's JSON metrics
      # (e.g. serve_slo_misses_total is a service counter, not a bench).
      fig[0-9]*|table[0-9]*|ext_*|micro_*|ablation*|host_corun*|multi_tenant*|serve_churn*|serve_slo|serve_cluster*|deep_models*|obs_overhead*)
        if [ ! -f "bench/$tok.cpp" ]; then
          echo "$doc: unknown benchmark \`$tok\` (no bench/$tok.cpp)"
          fail=1
        fi
        ;;
    esac
  done < <(grep -ohE '`[A-Za-z0-9_]+`' "$doc" | tr -d '`' | sort -u)

  # 4: backticked snake_case tokens must exist in the code or be a target.
  while IFS= read -r tok; do
    if ! grep -qxF "$tok" <<<"$code_words" &&
       ! grep -qxF "$tok" <<<"$valid_targets"; then
      echo "$doc: \`$tok\` names nothing in src/bench/examples/tests/perfbench/scripts"
      fail=1
    fi
  done < <(grep -ohE '`[a-z][a-z0-9]*(_[a-z0-9]+)+`' "$doc" | tr -d '`' |
           sort -u)

  # 3: relative markdown links (skip URLs and pure anchors).
  dir="$(dirname "$doc")"
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "$doc: broken link ($link)"
      fail=1
    fi
  done < <(grep -ohE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "docs lint FAILED"
  exit 1
fi
echo "docs lint OK (${#docs[@]} files checked)"
