#!/bin/sh
# Usage: fleet_abort_line.sh AVD_CLI
# `avd_cli fleet` with one remote slot and no worker to fill it gives up
# after the connect grace. It must exit 1 and print an ABORTED line that
# is true whatever ended the campaign: no worker connected here, so the
# line must not say that workers wedged.
out=$("$1" fleet --system quorum --spawn 0 --remote 1 --tests 4 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 1 ]; then
  echo "exit status $status, expected 1"
  exit 1
fi
case $out in
  *ABORTED*) ;;
  *) echo "no ABORTED line"; exit 1 ;;
esac
case $out in
  *wedged*) echo "the abort line blames wedged workers"; exit 1 ;;
esac
