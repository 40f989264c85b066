#!/bin/sh
# deadlock_smoke.sh — end-to-end smoke test of the lock-order watchdog:
#
#   1. the abba workload under -lockdep must be flagged as a lock-order
#      inversion (ABBA caught from the orders alone — nothing hangs);
#   2. the safe dining workload under -lockdep must stay silent: heavy
#      nesting and contention with a consistent order is NOT a finding;
#   3. the dining-deadlock hazard workload under -watchdog must park all
#      five philosophers, and the stall dump must name every one of
#      them, the wait-for cycle, and exit with status 3;
#   4. the disabled-path overhead tests must pass: lockdep off is one
#      atomic load and zero allocations on the lock fast path.
#
# Usage: scripts/deadlock_smoke.sh [outdir]   (default results/deadlock)
set -eu

GO="${GO:-go}"
OUT="${1:-results/deadlock}"
mkdir -p "$OUT"

BIN_DIR=$(mktemp -d)
trap 'rm -rf "$BIN_DIR"' EXIT INT TERM
# A real binary, not `go run`: the watchdog exits 3 and `go run` folds
# every nonzero child status into its own exit 1.
"$GO" build -o "$BIN_DIR/lockmon" ./cmd/lockmon

echo "== 1/4 abba: latent inversion must be flagged without a hang"
"$BIN_DIR/lockmon" -workload abba -lockdep -top 0 >"$OUT/abba.log" 2>&1
grep -q "lock-order inversion #1" "$OUT/abba.log" \
    || { echo "FAIL: abba run did not report the inversion"; cat "$OUT/abba.log"; exit 1; }
grep -q "GuardA#" "$OUT/abba.log" && grep -q "GuardB#" "$OUT/abba.log" \
    || { echo "FAIL: inversion report does not name both guards"; cat "$OUT/abba.log"; exit 1; }

echo "== 2/4 dining (ordered): contended nesting must stay silent"
"$BIN_DIR/lockmon" -workload dining -lockdep -top 0 >"$OUT/dining.log" 2>&1
grep -q "no lock-order inversions or wait-for cycles observed" "$OUT/dining.log" \
    || { echo "FAIL: ordered dining was not clean"; cat "$OUT/dining.log"; exit 1; }
if grep -q "lock-order inversion #" "$OUT/dining.log"; then
    echo "FAIL: false positive on ordered dining"; cat "$OUT/dining.log"; exit 1
fi

echo "== 3/4 dining-deadlock: watchdog must dump the cycle and exit 3"
STATUS=0
timeout 120 "$BIN_DIR/lockmon" -workload dining-deadlock \
    -impl ThinLock-compact -watchdog 2s -top 0 \
    >"$OUT/deadlock.log" 2>&1 || STATUS=$?
[ "$STATUS" -eq 3 ] \
    || { echo "FAIL: watchdog run exited $STATUS, want 3"; cat "$OUT/deadlock.log"; exit 1; }
grep -q "lockdep stall dump" "$OUT/deadlock.log" \
    || { echo "FAIL: no stall dump in output"; cat "$OUT/deadlock.log"; exit 1; }
grep -q "wait-for cycle (5 threads deadlocked)" "$OUT/deadlock.log" \
    || { echo "FAIL: dump does not show the full 5-thread cycle"; cat "$OUT/deadlock.log"; exit 1; }
for p in 0 1 2 3 4; do
    grep -q "phil-$p#" "$OUT/deadlock.log" \
        || { echo "FAIL: dump does not name phil-$p"; cat "$OUT/deadlock.log"; exit 1; }
done
grep -q "holds Fork#" "$OUT/deadlock.log" \
    || { echo "FAIL: dump does not attribute held forks"; cat "$OUT/deadlock.log"; exit 1; }

echo "== 4/4 disabled-path overhead tests"
"$GO" test -run 'TestDisabledLockdep|TestEnabledSteadyState' -count=1 ./internal/lockdep/

echo "OK: deadlock smoke passed (logs in $OUT)"
