#!/bin/sh
# Usage: expect_usage_error.sh PROGRAM ARGS...
# Runs PROGRAM ARGS and succeeds only if it fails as a usage error: exit
# status 2 with an "invalid value" message on stderr.
err=$("$@" 2>&1 >/dev/null)
status=$?
printf '%s\n' "$err"
if [ "$status" -ne 2 ]; then
  echo "exit status $status, expected 2"
  exit 1
fi
case $err in
  *"invalid value"*) exit 0 ;;
  *) echo "no 'invalid value' message on stderr"; exit 1 ;;
esac
