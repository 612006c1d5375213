#!/bin/sh
# Usage: golden_journal.sh AVD_CLI SYSTEM FIXTURE_DIR
# Runs a fixed serial campaign of SYSTEM and compares its journal and
# classes, byte for byte, with FIXTURE_DIR/SYSTEM/. Virtual time makes the
# output a pure function of the seed, so any difference is a change in
# behaviour. A change that alters them on purpose regenerates the fixtures
# with the same command (copying journal.jsonl and classes.json) and says
# why.
set -eu
cli=$1
system=$2
fixtures=$3/$system
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$cli" campaign --system "$system" --tests 8 --seed 1 --workers 1 \
  --out "$out/run" >/dev/null
cmp "$fixtures/journal.jsonl" "$out/run/journal.jsonl"
cmp "$fixtures/classes.json" "$out/run/classes.json"
