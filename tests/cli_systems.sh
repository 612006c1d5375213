#!/bin/sh
# Usage: cli_systems.sh AVD_CLI list|unknown SYSTEM...
# Checks avd_cli against the registry's system names, given in order:
#   list     `avd_cli list` exits 0 and prints one line per system, in
#            order, each starting with the system's name;
#   unknown  `avd_cli campaign --system nope` exits 2 and names every
#            system on stderr, as SYSTEM|SYSTEM|...
set -u
cli=$1
mode=$2
shift 2
case $mode in
  list)
    out=$("$cli" list) || { echo "avd_cli list failed"; exit 1; }
    printf '%s\n' "$out"
    names=$(printf '%s\n' "$out" | awk '{print $1}')
    if [ "$names" != "$(printf '%s\n' "$@")" ]; then
      echo "expected one line for each of: $*"
      exit 1
    fi
    ;;
  unknown)
    err=$("$cli" campaign --system nope 2>&1 >/dev/null)
    status=$?
    printf '%s\n' "$err"
    if [ "$status" -ne 2 ]; then
      echo "exit status $status, expected 2"
      exit 1
    fi
    joined=$(printf '%s|' "$@")
    case $err in
      *"${joined%|}"*) ;;
      *) echo "stderr does not name the systems as ${joined%|}"; exit 1 ;;
    esac
    ;;
  *)
    echo "unknown mode $mode"
    exit 2
    ;;
esac
