#!/bin/sh
# Every value a lib/ interface exports must have a caller outside its own
# module. For each `val` in lib/*/*.mli (a value of a nested
# `module X : sig ... end` is looked up as X.name), this looks for a
# qualified use `Module.name` in some .ml file under lib/, bin/, bench/
# (bench/pipeline included), examples/ or test/ other than the module's
# own .ml. It prints each value it finds no such use for and exits 1 if
# there is any; a value only its own module calls belongs out of the
# .mli, and one nothing calls belongs deleted.
#
# Test callers count: a checker only the test suites call, such as
# Partition.is_safe or Lr.check_ring, is part of the library's contract
# (it is how the tests check the artifact), so it stays public. The
# search is textual: an unqualified use after `open` is not seen, and a
# mention in a comment counts as a use.
#
#   sh test/lib_callers.sh        (from the repository root)
cd "$(dirname "$0")/.." || exit 2
uses=$(mktemp) || exit 2
trap 'rm -f "$uses"' EXIT
grep -rHoE --include='*.ml' --exclude-dir=_build \
  "\\b[A-Z][A-Za-z0-9_]*\\.[a-z_][A-Za-z0-9_']*" lib bin bench examples test \
  >"$uses"
for mli in lib/*/*.mli; do
  awk -v mli="$mli" '
    BEGIN {
      base = mli; sub(/.*\//, "", base); sub(/\.mli$/, "", base)
      mod = toupper(substr(base, 1, 1)) substr(base, 2)
      nested = ""
    }
    /^ *module [A-Z][A-Za-z0-9_]* *: *sig/ {
      nested = $2; sub(/:.*/, "", nested); next
    }
    /^ *end *$/ { nested = ""; next }
    /^ *val [a-z_]/ {
      name = $2; sub(/:.*/, "", name)
      print (nested == "" ? mod : nested) "." name
    }
  ' "$mli" | while read -r qual; do
    own=${mli%.mli}.ml
    if ! grep -F ":$qual" "$uses" | grep -v "^$own:" \
        | grep -qE ":$(printf '%s' "$qual" | sed 's/\./\\./')\$"; then
      echo "$mli: $qual has no caller outside $own"
    fi
  done
done | { found=0; while read -r line; do echo "$line"; found=1; done; exit $found; }
