#!/bin/sh
# Bad command-line input must end in a typed error, never in an uncaught
# exception (Cmdliner's exit 125). A bad --domains/--jobs count is a
# usage error: exit 124 before anything reaches stdout. An input the
# library rejects (an empty graph, a zero grid dimension) is one line on
# stderr and exit 2.
#
#   sh test/cli_errors.sh _build/default/bin/distplanar.exe
bin=$1
failed=0

check () {
  want=$1
  lines=$2
  shift 2
  out=$("$bin" "$@" 2>/dev/null)
  err=$("$bin" "$@" 2>&1 >/dev/null)
  got=$?
  n=$(printf '%s\n' "$err" | wc -l)
  if [ "$got" -ne "$want" ]; then
    echo "FAIL distplanar $*: exit $got, want $want"
    failed=1
  elif [ "$want" -eq 124 ] && [ -n "$out" ]; then
    echo "FAIL distplanar $*: usage error after output"
    failed=1
  elif [ "$lines" -gt 0 ] && [ "$n" -ne "$lines" ]; then
    echo "FAIL distplanar $*: $n stderr lines, want $lines"
    failed=1
  else
    echo "ok   distplanar $*: exit $got"
  fi
}

check 124 0 certify --family grid --rows 3 --cols 3 --domains 0
check 124 0 chaos --family grid -n 16 --domains 0
check 124 0 chaos --family grid -n 16 --jobs 0
check 124 0 route --family grid --rows 3 --cols 3 --random 3@1 --jobs 0
check 2 1 embed --family path -n 0
check 2 1 certify --family path -n 0
check 2 1 baseline --family path -n 0
check 2 1 embed --family grid --rows 0
exit $failed
