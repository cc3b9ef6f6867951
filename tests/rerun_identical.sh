#!/bin/sh
# Run `sepfeti run` twice on one config and fail unless the two runs write
# byte-identical solution.json, trace.csv and moments.csv.
#
# usage: sh tests/rerun_identical.sh CONFIG_JSON
#   CONFIG_JSON  a config overlay as JSON text, as `sepfeti run --config`
#                reads it from a file
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf '%s\n' "$1" > "$dir/config.json"
for k in 1 2; do
  PYTHONPATH="$root/src" python -m sepfeti.cli run --config "$dir/config.json" --out-dir "$dir/run$k"
done
for f in solution.json trace.csv moments.csv; do cmp "$dir/run1/$f" "$dir/run2/$f"; done
