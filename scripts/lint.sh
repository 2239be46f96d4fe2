#!/usr/bin/env bash
# Static-analysis gate: the project-invariant analyzer (analyze.py) and
# clang-tidy over every TU in compile_commands.json.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir: a configured build tree containing compile_commands.json
#              (default: build). CMake exports the database automatically
#              (CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level
#              CMakeLists).
#
# Exit status: 0 when every available tool passes; non-zero on findings.
# clang-tidy is gated on availability so the script degrades gracefully
# on toolchains that ship only gcc — CI installs clang-tidy and therefore
# always runs the full gate.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
status=0

# --- 1. analyzer self-test (the tool vouches for itself first) ---
echo "== analyzer self-test =="
if ! python3 "$repo_root/scripts/analyze.py" --self-test; then
  status=1
fi

# --- 2. project-invariant analyzer (determinism, checkpoint drift,
#        parallel captures); prefers the compilation database's file list
#        when a configured build tree exists ---
echo "== analyze.py: project invariants over src/ =="
analyze_args=("$repo_root/src")
if [[ -f "$build_dir/compile_commands.json" ]]; then
  analyze_args=(--db "$build_dir/compile_commands.json" "$repo_root/src")
fi
if ! python3 "$repo_root/scripts/analyze.py" "${analyze_args[@]}"; then
  status=1
fi

# --- 3. clang-tidy over the compilation database ---
tidy="$(command -v clang-tidy || true)"
if [[ -z "$tidy" ]]; then
  echo "== clang-tidy not found; skipping (install clang-tidy to run the full gate) =="
  exit "$status"
fi

db="$build_dir/compile_commands.json"
if [[ ! -f "$db" ]]; then
  echo "error: $db not found — configure a build tree first:" >&2
  echo "  cmake -B $build_dir -S $repo_root" >&2
  exit 1
fi

# Lint only first-party TUs; third-party and generated code are not ours
# to fix.
mapfile -t sources < <(python3 - "$db" <<'EOF'
import json, sys
db = json.load(open(sys.argv[1]))
seen = set()
for entry in db:
    f = entry["file"]
    if ("/src/" in f or "/tests/" in f) and f not in seen:
        seen.add(f)
        print(f)
EOF
)

echo "== clang-tidy: ${#sources[@]} translation units =="
if ! "$tidy" -p "$build_dir" --quiet "${sources[@]}"; then
  status=1
fi

exit "$status"
