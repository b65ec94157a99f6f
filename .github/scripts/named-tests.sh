#!/bin/sh
# usage: named-tests.sh 'TestA|TestB|...' [go test flags and packages]
#
# go test -run exits 0 when a name matches no test, so a renamed or
# retired test would silently drop out of a named suite. This checks
# with go test -list that every alternative of the pattern is the
# prefix of at least one test in the given packages, then runs them
# uncached.
set -eu
pattern=$1
shift
listed=$(go test -list "$pattern" "$@")
for name in $(printf '%s' "$pattern" | tr '|' ' '); do
	if ! printf '%s\n' "$listed" | grep -q "^$name"; then
		echo "named-tests: no test matches $name in: $*" >&2
		exit 1
	fi
done
exec go test -count=1 -run "$pattern" "$@"
