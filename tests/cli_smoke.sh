#!/bin/sh
# End-to-end smoke test of the csj_cli tool: generate two communities,
# inspect one, join them with several methods (text and JSON), and run
# the pipeline subcommand. Registered with ctest; $1 is the csj_cli path.
set -eu

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --family vk --category Sport --size 800 --seed 3 \
    --out "$DIR/a.bin" > /dev/null
"$CLI" generate --family vk --category Sport --size 700 --seed 4 \
    --out "$DIR/b.csv" > /dev/null

"$CLI" info --file "$DIR/a.bin" | grep -q "users:       800"
"$CLI" info --file "$DIR/b.csv" | grep -q "dimensions:  27"

for METHOD in Ex-MinMax Ap-MinMax Ex-SuperEGO Ex-MinMaxEGO; do
  "$CLI" similarity --b "$DIR/b.csv" --a "$DIR/a.bin" --method "$METHOD" \
      --eps 1 | grep -q "similarity"
done

# JSON output is syntactically sane (balanced braces, expected keys).
JSON=$("$CLI" similarity --b "$DIR/b.csv" --a "$DIR/a.bin" \
    --method Ex-MinMax --eps 1 --json true --pairs 3)
echo "$JSON" | grep -q '"method":"Ex-MinMax"'
echo "$JSON" | grep -q '"similarity":'
echo "$JSON" | grep -q '"stats":{'

# The pipeline subcommand ranks candidates.
"$CLI" pipeline --pivot "$DIR/a.bin" \
    --candidates "$DIR/b.csv,$DIR/a.bin" --threshold 0.5 \
    | grep -q "screened 2"

# A candidate of another dimensionality (and an admissible size) is
# inadmissible, not fatal, with the bound prune on (the default).
awk 'BEGIN { for (i = 0; i < 700; i++) print i % 7 "," i % 5 "," i % 3 }' \
    > "$DIR/d3.csv"
"$CLI" pipeline --pivot "$DIR/a.bin" \
    --candidates "$DIR/b.csv,$DIR/d3.csv" --threshold 0.5 \
    | grep -q "inadmissible 1"

# Failure paths exit non-zero.
if "$CLI" similarity --b /nonexistent --a "$DIR/a.bin" 2> /dev/null; then
  echo "expected failure on missing input" >&2
  exit 1
fi
if "$CLI" similarity --b "$DIR/b.csv" --a "$DIR/a.bin" --method Bogus \
    2> /dev/null; then
  echo "expected failure on unknown method" >&2
  exit 1
fi

echo "cli smoke OK"
