#!/usr/bin/env bash
# Fails unless the compiler inlines the thin fast-path helpers into
# (*ThinLocks).Lock and (*ThinLocks).Unlock at every call site, so the
# one-call uncontended path cannot grow past Go's inlining budget
# unnoticed. Run from the repository root (`make fastpath` does):
#
#   scripts/fastpath_check.sh
set -euo pipefail

GO="${GO:-go}"
src=internal/core/thinlocks.go
decisions=$("$GO" build -gcflags=-m ./internal/core 2>&1)

# expect METHOD HELPER NAME: every call of HELPER in METHOD's body is
# reported as "inlining call to NAME", and there is at least one.
fail=0
expect() {
	local method=$1 helper=$2 name=$3 first last calls inlined
	read -r first last < <(awk -v sig="$method" '
		index($0, sig) == 1 { start = NR }
		start && /^}/ { print start, NR; exit }
	' "$src")
	if [ -z "${first:-}" ]; then
		echo "fastpath: $method not found in $src"
		fail=1
		return
	fi
	calls=$(awk -v a="$first" -v b="$last" -v h="$helper(" '
		NR >= a && NR <= b {
			s = $0
			while ((i = index(s, h)) > 0) { n++; s = substr(s, i + length(h)) }
		}
		END { print n + 0 }
	' "$src")
	inlined=$(printf '%s\n' "$decisions" | awk -v f="$src:" -v a="$first" -v b="$last" -v want="inlining call to $name" '
		index($0, f) == 1 {
			split(substr($0, length(f) + 1), pos, ":")
			line = pos[1] + 0
			if (line >= a && line <= b && substr($0, length($0) - length(want) + 1) == want) n++
		}
		END { print n + 0 }
	')
	if [ "$calls" -eq 0 ] || [ "$inlined" -ne "$calls" ]; then
		echo "fastpath: $name inlined at $inlined of $calls call sites in $method (lines $first-$last)"
		fail=1
	else
		echo "fastpath: $name inlined at all $calls call sites in $method"
	fi
}

expect 'func (l *ThinLocks) Lock(' 'lockThin' 'lockThin'
expect 'func (l *ThinLocks) Unlock(' 'l.unlockThin' '(*ThinLocks).unlockThin'
expect 'func (l *ThinLocks) Unlock(' 'l.unlockThinCAS' '(*ThinLocks).unlockThinCAS'
exit "$fail"
