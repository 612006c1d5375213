#!/bin/sh
# Golden-output check for the paper benches.
#
# Usage: bench/check_expected.sh BUILD_DIR
#
# Runs every bench that has a committed bench/expected/<bench>.txt, all at
# once, from a scratch working directory, and compares each bench's stdout
# with its file byte for byte. Prints a unified diff for every bench that
# differs and exits 1 if any bench differs or fails; exits 2 on misuse.
#
# The benches are deterministic (virtual time, fixed seeds), so any change
# is a change in behaviour. To accept one, regenerate the file from the
# bench's stdout:  BUILD_DIR/bench/<bench> > bench/expected/<bench>.txt
set -u

if [ $# -ne 1 ] || [ ! -d "$1/bench" ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
expected=$(cd "$(dirname "$0")/expected" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

for file in "$expected"/*.txt; do
  bench=$(basename "$file" .txt)
  ("$build/bench/$bench" > "$bench.out"; echo $? > "$bench.status") &
done
wait

status=0
for file in "$expected"/*.txt; do
  bench=$(basename "$file" .txt)
  code=$(cat "$bench.status")
  if [ "$code" != 0 ]; then
    echo "FAIL $bench: exit status $code"
    status=1
  fi
  if diff -u --label "expected/$bench.txt" --label "$bench stdout" \
      "$file" "$bench.out"; then
    echo "ok   $bench"
  else
    echo "DIFF $bench"
    status=1
  fi
done
exit $status
