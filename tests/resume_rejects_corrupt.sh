#!/bin/sh
# Usage: resume_rejects_corrupt.sh AVD_CLI CASE
# `avd_cli campaign --resume` fails on a present but malformed manifest or
# checkpoint value, naming the file, instead of resuming with a default;
# an absent key still takes its default. CASE picks the edit:
#   batch_negative      fleet manifest "batch":-1
#   heartbeat_word      fleet manifest "heartbeatMs":"x"
#   min_impact_word     manifest "minImpact":"x"
#   respawns_negative   checkpoint "respawns":-1
#   version_future      manifest "version":2, a format this binary does not
#                       write
#   no_fleet_keys       manifest without minImpact/mode/batch/spawn/
#                       heartbeatMs: must resume to the journal and classes
#                       of an uninterrupted run
set -eu
cli=$1
case_name=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Replaces the text matching sed expression $2 in file $1, and fails if
# nothing matched.
edit() {
  sed "$2" "$1" > "$1.tmp"
  if cmp -s "$1" "$1.tmp"; then
    echo "edit '$2' changed nothing in $1"
    exit 1
  fi
  mv "$1.tmp" "$1"
}

# Expects the resume to fail with a message that names file $1.
expect_rejected() {
  if "$cli" campaign --resume "$out/dir" > "$out/log" 2> "$out/err"; then
    cat "$out/log"
    echo "resume succeeded; expected it to reject $1"
    exit 1
  fi
  cat "$out/err"
  grep -q "$out/dir/$1" "$out/err" || {
    echo "the error does not name $out/dir/$1"
    exit 1
  }
}

case $case_name in
  batch_negative|heartbeat_word)
    "$cli" campaign --system quorum --tests 8 --seed 3 --workers 2 \
      --out "$out/dir" > /dev/null
    if [ "$case_name" = batch_negative ]; then
      edit "$out/dir/manifest.json" 's/"batch":[0-9]*/"batch":-1/'
    else
      edit "$out/dir/manifest.json" 's/"heartbeatMs":[0-9]*/"heartbeatMs":"x"/'
    fi
    expect_rejected manifest.json
    ;;
  min_impact_word|version_future)
    "$cli" campaign --system quorum --tests 8 --seed 3 --out "$out/dir" \
      > /dev/null
    if [ "$case_name" = min_impact_word ]; then
      edit "$out/dir/manifest.json" 's/"minImpact":[^,]*/"minImpact":"x"/'
    else
      edit "$out/dir/manifest.json" 's/"version":1,/"version":2,/'
    fi
    expect_rejected manifest.json
    ;;
  respawns_negative)
    "$cli" campaign --system quorum --tests 8 --seed 3 --out "$out/dir" \
      > /dev/null
    edit "$out/dir/checkpoint.json" 's/"respawns":[0-9]*/"respawns":-1/'
    expect_rejected checkpoint.json
    ;;
  no_fleet_keys)
    for dir in ref dir; do
      "$cli" campaign --system quorum --tests 16 --seed 3 --out "$out/$dir" \
        > /dev/null
    done
    edit "$out/dir/manifest.json" \
      's/"mode":"process",//; s/,"minImpact":[^,]*//; s/,"batch":[0-9]*,"spawn":[0-9]*,"heartbeatMs":[0-9]*//'
    size=$(wc -c < "$out/dir/journal.jsonl")
    head -c $((size / 2)) "$out/dir/journal.jsonl" > "$out/journal.tmp"
    mv "$out/journal.tmp" "$out/dir/journal.jsonl"
    rm -f "$out/dir/checkpoint.json"
    "$cli" campaign --resume "$out/dir" > /dev/null
    cmp "$out/ref/journal.jsonl" "$out/dir/journal.jsonl"
    cmp "$out/ref/classes.json" "$out/dir/classes.json"
    ;;
  *)
    echo "unknown case $case_name"
    exit 2
    ;;
esac
