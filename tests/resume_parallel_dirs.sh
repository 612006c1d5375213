#!/bin/sh
# Usage: resume_parallel_dirs.sh AVD_CLI FIXTURE_DIR
# `avd_cli campaign --resume` continues both kinds of parallel campaign
# directory:
#  - one written by thread workers (`campaign --workers 2`, mode "fleet"),
#    killed mid-run and stripped of its shards, resumes on worker processes
#    to the journal and classes of an uninterrupted run;
#  - one written by the former in-process pool (FIXTURE_DIR/pool_*, a
#    completion-order journal, mode "process") runs on the serial loop, as
#    one worker, to its full budget and to the journal in
#    FIXTURE_DIR/pool_resumed_journal.jsonl.
set -eu
cli=$1
fixtures=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for dir in ref cut; do
  "$cli" campaign --system quorum --tests 24 --seed 5 --workers 2 \
    --out "$out/$dir" >/dev/null
done
size=$(wc -c < "$out/cut/journal.jsonl")
head -c $((size / 2)) "$out/cut/journal.jsonl" > "$out/journal.tmp"
mv "$out/journal.tmp" "$out/cut/journal.jsonl"
rm -f "$out"/cut/shard-*
"$cli" campaign --resume "$out/cut" > "$out/cut.log"
grep -q "resuming fleet campaign" "$out/cut.log"
cmp "$out/ref/journal.jsonl" "$out/cut/journal.jsonl"
cmp "$out/ref/classes.json" "$out/cut/classes.json"

mkdir "$out/pool"
cp "$fixtures/pool_manifest.json" "$out/pool/manifest.json"
head -n 30 "$fixtures/pool_journal.jsonl" > "$out/pool/journal.jsonl"
"$cli" campaign --resume "$out/pool" > "$out/pool.log"
grep -q "resuming campaign on quorum: 24 tests, 1 worker(s)" "$out/pool.log"
grep -q "executed 24 scenarios" "$out/pool.log"
cmp "$fixtures/pool_resumed_journal.jsonl" "$out/pool/journal.jsonl"
