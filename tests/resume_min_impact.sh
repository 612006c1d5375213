#!/bin/sh
# Usage: resume_min_impact.sh AVD_CLI
# A campaign run with a non-default triage threshold (--min-impact 0.25)
# resumes with that threshold: `avd_cli campaign --resume DIR`, given no
# other flag, writes the journal.jsonl and classes.json of an uninterrupted
# run on the serial loop, on two thread workers and on two worker
# processes.
set -eu
cli=$1
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for driver in "campaign --workers 1" "campaign --workers 2" "fleet --spawn 2"
do
  for dir in ref cut; do
    # $driver is unquoted on purpose: a command and its worker flag.
    "$cli" $driver --system quorum --seed 3 --tests 40 --min-impact 0.25 \
      --out "$out/$dir" > /dev/null
  done
  size=$(wc -c < "$out/cut/journal.jsonl")
  head -c $((size / 2)) "$out/cut/journal.jsonl" > "$out/journal.tmp"
  mv "$out/journal.tmp" "$out/cut/journal.jsonl"
  rm -f "$out"/cut/shard-*
  "$cli" campaign --resume "$out/cut" > /dev/null
  for file in journal.jsonl classes.json; do
    cmp "$out/ref/$file" "$out/cut/$file" || {
      echo "$driver: resumed $file differs from the uninterrupted run's"
      exit 1
    }
  done
  rm -rf "$out/ref" "$out/cut"
done
