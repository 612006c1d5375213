#!/bin/sh
# Usage: golden_journal.sh AVD_CLI SYSTEM WORKERS TESTS FIXTURE_DIR
# Runs a fixed seed-1 campaign of SYSTEM with WORKERS workers and a budget
# of TESTS, and compares its journal and classes, byte for byte, with
# FIXTURE_DIR. One worker is the serial loop; more run on the fleet
# coordinator with thread workers. Virtual time makes the output a pure
# function of the seed and the window, so any difference is a change in
# behaviour. A change that alters them on purpose regenerates the fixtures
# with the same command (copying journal.jsonl and classes.json) and says
# why.
set -eu
cli=$1
system=$2
workers=$3
tests=$4
fixtures=$5
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$cli" campaign --system "$system" --tests "$tests" --seed 1 \
  --workers "$workers" --out "$out/run" >/dev/null
cmp "$fixtures/journal.jsonl" "$out/run/journal.jsonl"
cmp "$fixtures/classes.json" "$out/run/classes.json"
