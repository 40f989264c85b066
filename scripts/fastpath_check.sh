#!/usr/bin/env bash
# Fails unless the compiler inlines the lock fast-path helpers at every
# call site: the thin helpers into (*ThinLocks).Lock and Unlock, so
# ThinLock's one-call uncontended path cannot grow past Go's inlining
# budget unnoticed, and Biased's slot accessor (with the index and the
# slot read under it) into (*Locker).lockBody and unlockBody, so the
# owner's direct slot index cannot quietly become a call. Run from the
# repository root (`make fastpath` does):
#
#   scripts/fastpath_check.sh
set -euo pipefail

GO="${GO:-go}"

# The compiler's inlining report per package, built once each.
declare -A reports

# expect SRC METHOD HELPER NAME: in source file SRC, every call of HELPER
# in METHOD's body is reported as "inlining call to NAME" by the build of
# SRC's package, and there is at least one. NAME may be a call the
# helper's own body makes: the compiler reports a nested inline at the
# outer call site.
fail=0
expect() {
	local src=$1 method=$2 helper=$3 name=$4 pkg first last calls inlined
	pkg=./$(dirname "$src")
	if [ -z "${reports[$pkg]+set}" ]; then
		reports[$pkg]=$("$GO" build -gcflags=-m "$pkg" 2>&1)
	fi
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
	inlined=$(printf '%s\n' "${reports[$pkg]}" | awk -v f="$src:" -v a="$first" -v b="$last" -v want="inlining call to $name" '
		index($0, f) == 1 {
			split(substr($0, length(f) + 1), pos, ":")
			line = pos[1] + 0
			if (line >= a && line <= b && substr($0, length($0) - length(want) + 1) == want) n++
		}
		END { print n + 0 }
	')
	if [ "$calls" -eq 0 ] || [ "$inlined" -ne "$calls" ]; then
		echo "fastpath: $name inlined at $inlined of $calls call sites in $method (lines $first-$last of $src)"
		fail=1
	else
		echo "fastpath: $name inlined at all $calls call sites in $method"
	fi
}

thin=internal/core/thinlocks.go
expect "$thin" 'func (l *ThinLocks) Lock(' 'lockThin' 'lockThin'
expect "$thin" 'func (l *ThinLocks) Unlock(' 'l.unlockThin' '(*ThinLocks).unlockThin'
expect "$thin" 'func (l *ThinLocks) Unlock(' 'l.unlockThinCAS' '(*ThinLocks).unlockThinCAS'

biased=internal/biased/biased.go
for method in 'func (l *Locker) lockBody(' 'func (l *Locker) unlockBody('; do
	expect "$biased" "$method" 'slotFor' 'slotFor'
	expect "$biased" "$method" 'slotFor' 'core.BiasSlotIndex'
	expect "$biased" "$method" 'slotFor' 'threading.(*Thread).BiasSlot'
done
exit "$fail"
