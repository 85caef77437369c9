#!/bin/sh
# Bad bench arguments must fail before any case runs: one line on
# stderr, nothing on stdout, exit 2. Covers a missing --out value, an
# unknown argument and an unwritable --out path for every bench, and a
# bad --jobs count for the two that take one.
#
#   sh bench/cli_errors.sh _build/default/bench/kernels.exe ...
failed=0
# A path under a regular file cannot be created, whoever runs this.
unwritable="$0/out.json"

check () {
  case $1 in */*) bin=$1 ;; *) bin=./$1 ;; esac
  shift
  out=$("$bin" "$@" 2>/dev/null)
  err=$("$bin" "$@" 2>&1 >/dev/null)
  got=$?
  n=$(printf '%s\n' "$err" | wc -l)
  name=$(basename "$bin")
  if [ "$got" -ne 2 ]; then
    echo "FAIL $name $*: exit $got, want 2"
    failed=1
  elif [ -n "$out" ]; then
    echo "FAIL $name $*: output before the error"
    failed=1
  elif [ "$n" -ne 1 ]; then
    echo "FAIL $name $*: $n stderr lines, want 1"
    failed=1
  else
    echo "ok   $name $*: $err"
  fi
}

for bin in "$@"; do
  check "$bin" --quick --out
  check "$bin" --quick --frobnicate
  check "$bin" --quick --out "$unwritable"
  case $(basename "$bin") in
    engine.exe | chaos.exe)
      check "$bin" --quick --jobs 0
      check "$bin" --quick --jobs ;;
  esac
done
exit $failed
