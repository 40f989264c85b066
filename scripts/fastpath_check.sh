#!/usr/bin/env bash
# Checks the lock fast paths in two halves. Run from the repository root
# (`make fastpath` does):
#
#   scripts/fastpath_check.sh
#
# First, it fails unless the compiler inlines the lock fast-path helpers
# at every call site: the thin helpers into (*ThinLocks).Lock and
# Unlock, so ThinLock's one-call uncontended path cannot grow past Go's
# inlining budget unnoticed, and Biased's slot accessor (with the index
# and the slot read under it) into (*Locker).lockBody and unlockBody, so
# the owner's direct slot index cannot quietly become a call.
#
# Second, on amd64, it disassembles the fast-path functions, the object
# allocator every workload's fresh objects come from, and the busy
# pause every spinner makes, and fails
# unless their locked instructions (LOCK-prefixed or XCHG) and their
# calls of this module's functions, counted by kind, match the committed
# table scripts/fastpath_amd64.txt. A change that adds a locked
# instruction or a call to a fast path must update that table.
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

# The disassembly table. Its rows name a function, a kind and a count.
# A kind is a locked instruction's mnemonic, "CALL" and a callee in this
# module, or "CALL indirect"; calls into the runtime and the standard
# library (the stack check, panics, sync's slow paths) are left out. A
# function with none of these has one row of kind "-". Symbols drop the
# module's "thinlock/internal/" prefix wherever it appears (a generic
# method's shape names its type argument by it), and the key leaves out
# source lines: an inlined atomic is attributed to the standard
# library's line.
# Code generation and inlining change between Go releases, so the table
# names the release it was made with in its "# toolchain:" line (go.mod's
# toolchain line selects it), and under another release this half is
# skipped with a message.
table=scripts/fastpath_amd64.txt
goarch=$("$GO" env GOARCH)
if [ "$goarch" != amd64 ]; then
	echo "fastpath: the locked-instruction table is amd64's; skipped on $goarch"
	exit "$fail"
fi
made=$(sed -n 's/^# toolchain: //p' "$table")
if [ -z "$made" ]; then
	echo "fastpath: $table has no '# toolchain:' line"
	exit 1
fi
goversion=$("$GO" env GOVERSION)
if [[ ! $goversion =~ ^go[0-9]+\.[0-9]+ ]] || [ "${BASH_REMATCH[0]}" != "$made" ]; then
	echo "fastpath: $table was made with $made; skipped under $goversion"
	exit "$fail"
fi
funcs=(
	'core.(*ThinLocks).Lock'
	'core.(*ThinLocks).Unlock'
	'core.lockFn'
	'core.unlockFn'
	'core.(*ThinLocks).lockKernel'
	'core.(*ThinLocks).unlockSlow'
	'monitor.(*Monitor).Enter'
	'monitor.(*Monitor).Exit'
	'object.(*Heap).New'
	'arch.procYield'
)
syms=$(printf '%s\n' "${funcs[@]}" | sed 's/[().*]/\\&/g; s|^|^thinlock/internal/|; s/$/$/' | paste -sd'|')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$GO" test -c -o "$tmp/core.test" ./internal/core
"$GO" tool objdump -s "$syms" "$tmp/core.test" | awk -F'\t+' -v order="${funcs[*]}" '
	/^TEXT / {
		fn = $0
		sub(/^TEXT thinlock\/internal\//, "", fn)
		sub(/\(SB\).*/, "", fn)
		next
	}
	{
		ins = $4
		kind = ""
		if (ins ~ /^LOCK /) {
			split(ins, w, " ")
			kind = w[1] " " w[2]
		} else if (ins ~ /^XCHG/) {
			split(ins, w, " ")
			kind = w[1]
		} else if (ins ~ /^CALL thinlock\//) {
			kind = ins
			sub(/[ \t]+$/, "", kind)
			sub(/\(SB\)$/, "", kind)
			gsub(/thinlock\/internal\//, "", kind)
		} else if (ins ~ /^CALL [^a-z]/) {
			kind = "CALL indirect"
		}
		if (kind != "") n[fn "\t" kind]++
	}
	END {
		nf = split(order, fns, " ")
		for (i = 1; i <= nf; i++) {
			rows = 0
			for (key in n) {
				split(key, k, "\t")
				if (k[1] == fns[i]) { line[++rows] = sprintf("%-30s %-44s %d", fns[i], k[2], n[key]) }
			}
			if (rows == 0) { printf "%-30s %-44s %d\n", fns[i], "-", 0; continue }
			# insertion sort, so the order does not depend on awk
			for (a = 2; a <= rows; a++) {
				v = line[a]
				for (b = a - 1; b >= 1 && line[b] > v; b--) line[b + 1] = line[b]
				line[b + 1] = v
			}
			for (a = 1; a <= rows; a++) print line[a]
		}
	}
' >"$tmp/table.txt"
if diff -u <(grep -v '^#' "$table") "$tmp/table.txt" >"$tmp/diff.txt"; then
	echo "fastpath: locked instructions and calls of ${#funcs[@]} fast-path functions match $table"
else
	echo "fastpath: the disassembly no longer matches $table (- table, + build):"
	cat "$tmp/diff.txt"
	echo "fastpath: if the change is intended, replace the table's rows with:"
	cat "$tmp/table.txt"
	fail=1
fi
exit "$fail"
