// Package telemetry is the always-on observability layer for the lock
// implementations: per-thread-sharded, cache-line-padded atomic counters
// and log-scale latency histograms cheap enough to leave enabled during
// timed, contended runs.
//
// The paper's entire argument rests on measurement (the Table 1 sync
// counts, the Figure 3 nesting profile, the inflation and contention
// rates that justify the 24-bit encoding), but the characterization
// wrappers in internal/lockstat and internal/locktrace serialize every
// event through one mutex and are therefore restricted to untimed
// passes. This package takes the opposite contract:
//
//   - recording a counter is one atomic add into a shard selected by the
//     acting thread's index, so concurrent threads do not share cache
//     lines on the hot counters;
//   - every hook site is guarded by a single atomic pointer load
//     (Active/Enabled); with telemetry disabled a hook compiles to a
//     load, a compare and a not-taken branch, and allocates nothing;
//   - hooks live only on slow paths (lock slow path, monitor queueing,
//     cache lookups) plus the VM's monitorenter/monitorexit dispatch —
//     the paper's 17-instruction thin-lock fast path is untouched.
//
// The overhead contract is enforced by the benchmarks and allocation
// tests in overhead_test.go.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"

	"thinlock/internal/threading"
)

// Counter enumerates the runtime counters. The order defines the layout
// of a shard and of Snapshot arrays; names are given by Name.
type Counter uint8

const (
	// CtrSlowPathEntries counts thin-lock acquisitions that left the
	// inlined fast path (nested locks, inflated locks, contention).
	CtrSlowPathEntries Counter = iota
	// CtrCASFailures counts compare-and-swap attempts on the lock word
	// that lost a race and had to retry.
	CtrCASFailures
	// CtrInflationsContention counts inflations caused by contention for
	// a thin lock.
	CtrInflationsContention
	// CtrInflationsOverflow counts inflations caused by nested-count
	// overflow.
	CtrInflationsOverflow
	// CtrInflationsWait counts inflations caused by waiting on a
	// thin-locked object.
	CtrInflationsWait
	// CtrDeflations counts fat locks turned back into thin locks.
	CtrDeflations
	// CtrSpinRounds counts individual back-off pauses while spinning on
	// a thin lock held by another thread.
	CtrSpinRounds
	// CtrQueuedParks counts contenders parked on a flat-lock-contention
	// queue (queued-inflation extension).
	CtrQueuedParks
	// CtrFLCWakeups counts owner-side contention-queue wakeups.
	CtrFLCWakeups
	// CtrMonitorContendedEntries counts monitor entries that had to join
	// the entry queue.
	CtrMonitorContendedEntries
	// CtrMonitorHandoffs counts direct ownership handoffs from an
	// exiting owner to the head of the entry queue.
	CtrMonitorHandoffs
	// CtrMonitorRetirements counts monitors retired by the deflation
	// extension.
	CtrMonitorRetirements
	// CtrWaits counts monitor Wait calls.
	CtrWaits
	// CtrWaitTimerWakeups counts waits whose wakeup came from the timer
	// rather than a notification.
	CtrWaitTimerWakeups
	// CtrNotifies counts Notify and NotifyAll calls.
	CtrNotifies
	// CtrVMMonitorEnter counts monitorenter opcodes executed by the
	// bytecode interpreter.
	CtrVMMonitorEnter
	// CtrVMMonitorExit counts monitorexit opcodes executed by the
	// bytecode interpreter.
	CtrVMMonitorExit
	// CtrCacheLookups counts JDK111 monitor-cache consultations.
	CtrCacheLookups
	// CtrCacheMisses counts JDK111 lookups that had to bind a monitor.
	CtrCacheMisses
	// CtrCacheSweeps counts JDK111 free-list refill sweeps.
	CtrCacheSweeps
	// CtrHotOps counts IBM112 operations served through a hot slot.
	CtrHotOps
	// CtrColdOps counts IBM112 operations that went through the cold
	// cache.
	CtrColdOps
	// CtrHotPromotions counts IBM112 objects promoted to hot slots.
	CtrHotPromotions
	// CtrColdSweeps counts IBM112 cold-cache cleanup scans.
	CtrColdSweeps
	// CtrBiasInstalls counts bias reservations installed on previously
	// unlocked objects.
	CtrBiasInstalls
	// CtrBiasedAcquires counts lock acquisitions served by the biased
	// owner fast path (no write to the shared lock word).
	CtrBiasedAcquires
	// CtrBiasTransfers counts stale-epoch reservations transferred to a
	// new owner without a full revocation.
	CtrBiasTransfers
	// CtrBiasRevocationsContention counts revocations forced by a second
	// thread contending for a biased object.
	CtrBiasRevocationsContention
	// CtrBiasRevocationsWait counts owner self-revocations forced by
	// Wait on a biased object.
	CtrBiasRevocationsWait
	// CtrBiasRevocationsOverflow counts owner self-revocations forced by
	// recursion past the biased depth limit.
	CtrBiasRevocationsOverflow
	// CtrBulkRebiases counts class-epoch bumps (bulk rebias heuristic).
	CtrBulkRebiases
	// CtrBulkRevokes counts classes declared unbiasable (bulk revoke).
	CtrBulkRevokes
	// CtrMonitorFrees counts monitor indices returned to the table's
	// recycler after deflation (compact-monitor extension).
	CtrMonitorFrees
	// CtrMonitorRecycles counts inflations served with a recycled
	// monitor index instead of extending the table.
	CtrMonitorRecycles

	// NumCounters is the number of defined counters.
	NumCounters
)

// counterNames are the stable metric names (snake_case, used as JSON
// keys and, prefixed, as Prometheus metric names).
var counterNames = [NumCounters]string{
	CtrSlowPathEntries:         "slow_path_entries",
	CtrCASFailures:             "cas_failures",
	CtrInflationsContention:    "inflations_contention",
	CtrInflationsOverflow:      "inflations_overflow",
	CtrInflationsWait:          "inflations_wait",
	CtrDeflations:              "deflations",
	CtrSpinRounds:              "spin_rounds",
	CtrQueuedParks:             "queued_parks",
	CtrFLCWakeups:              "flc_wakeups",
	CtrMonitorContendedEntries: "monitor_contended_entries",
	CtrMonitorHandoffs:         "monitor_handoffs",
	CtrMonitorRetirements:      "monitor_retirements",
	CtrWaits:                   "waits",
	CtrWaitTimerWakeups:        "wait_timer_wakeups",
	CtrNotifies:                "notifies",
	CtrVMMonitorEnter:          "vm_monitorenter_ops",
	CtrVMMonitorExit:           "vm_monitorexit_ops",
	CtrCacheLookups:            "cache_lookups",
	CtrCacheMisses:             "cache_misses",
	CtrCacheSweeps:             "cache_sweeps",
	CtrHotOps:                  "hot_ops",
	CtrColdOps:                 "cold_ops",
	CtrHotPromotions:           "hot_promotions",
	CtrColdSweeps:              "cold_sweeps",
	CtrBiasInstalls:            "bias_installs",
	CtrBiasedAcquires:          "biased_acquires",
	CtrBiasTransfers:           "bias_transfers",

	CtrBiasRevocationsContention: "bias_revocations_contention",
	CtrBiasRevocationsWait:       "bias_revocations_wait",
	CtrBiasRevocationsOverflow:   "bias_revocations_overflow",
	CtrBulkRebiases:              "bulk_rebiases",
	CtrBulkRevokes:               "bulk_revokes",
	CtrMonitorFrees:              "monitor_frees",
	CtrMonitorRecycles:           "monitor_recycles",
}

// Name returns the counter's stable metric name.
func (c Counter) Name() string {
	if c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Histo enumerates the latency/depth histograms.
type Histo uint8

const (
	// HistAcquireSlowNs is the latency of thin-lock slow-path
	// acquisitions, in nanoseconds.
	HistAcquireSlowNs Histo = iota
	// HistMonitorStallNs is the time a thread spent blocked in a
	// monitor's entry queue, in nanoseconds.
	HistMonitorStallNs
	// HistBiasHandshakeNs is the time a thread stalled in the bias
	// revocation handshake: the owner reconciling against a revocation
	// of its reservation, or a contender waiting out the revocation
	// sentinel.
	HistBiasHandshakeNs
	// HistEntryQueueDepth is the entry-queue depth observed each time a
	// thread joined a monitor's entry queue.
	HistEntryQueueDepth
	// HistHoldNs is the measured lock hold time of sampled contended
	// acquisitions (acquisition to the same thread's next slow-path
	// unlock). It is fed by the lockprof hold measurement, so it only
	// populates while the contention profiler is enabled.
	HistHoldNs

	// NumHistos is the number of defined histograms.
	NumHistos
)

var histoNames = [NumHistos]string{
	HistAcquireSlowNs:   "acquire_slow_ns",
	HistMonitorStallNs:  "monitor_stall_ns",
	HistBiasHandshakeNs: "bias_handshake_ns",
	HistEntryQueueDepth: "entry_queue_depth",
	HistHoldNs:          "hold_ns",
}

// Name returns the histogram's stable metric name.
func (h Histo) Name() string {
	if h >= NumHistos {
		return "unknown"
	}
	return histoNames[h]
}

// NumBuckets is the number of log2-scale histogram buckets. Bucket b
// holds observations v with bits.Len64(v) == b, i.e. bucket 0 holds 0,
// bucket b holds [2^(b-1), 2^b-1]; the last bucket absorbs everything
// larger (~2^46 ns ≈ 20 hours, far beyond any lock stall).
const NumBuckets = 48

// BucketUpperBound returns the inclusive upper bound of bucket b
// (used as the Prometheus `le` label).
func BucketUpperBound(b int) uint64 {
	if b >= NumBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(b) - 1
}

// bucketLowerBound returns the inclusive lower bound of bucket b (the
// interpolation anchor for Quantile).
func bucketLowerBound(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return 1 << uint(b-1)
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// shardBits selects the shard count. Thread indices are handed out
// densely from 1, so consecutive threads land in distinct shards.
const shardBits = 6

// NumShards is the number of counter shards.
const NumShards = 1 << shardBits

// shard is one thread-sharded slice of every counter and histogram.
// The trailing pad keeps the next shard's hot counters off this shard's
// last cache line.
type shard struct {
	counters [NumCounters]atomic.Uint64
	buckets  [NumHistos][NumBuckets]atomic.Uint64
	sums     [NumHistos]atomic.Uint64
	_        [64]byte
}

// Telemetry is one set of sharded counters and histograms. The zero
// value is ready to use; instances are safe for concurrent use.
type Telemetry struct {
	shards [NumShards]shard
}

// New returns an empty Telemetry.
func New() *Telemetry { return &Telemetry{} }

// shardFor selects the shard for the acting thread (shard 0 for nil,
// used by hooks that run without a thread in scope).
//
//lockvet:noalloc
func (m *Telemetry) shardFor(t *threading.Thread) *shard {
	if t == nil {
		return &m.shards[0]
	}
	return &m.shards[int(t.Index())&(NumShards-1)]
}

// Inc adds 1 to c in t's shard.
//
//lockvet:noalloc
func (m *Telemetry) Inc(t *threading.Thread, c Counter) {
	m.shardFor(t).counters[c].Add(1)
}

// Add adds n to c in t's shard.
//
//lockvet:noalloc
func (m *Telemetry) Add(t *threading.Thread, c Counter, n uint64) {
	m.shardFor(t).counters[c].Add(n)
}

// Observe records v into histogram h in t's shard. Negative values
// clamp to zero.
//
//lockvet:noalloc
func (m *Telemetry) Observe(t *threading.Thread, h Histo, v int64) {
	s := m.shardFor(t)
	s.buckets[h][bucketOf(v)].Add(1)
	if v > 0 {
		s.sums[h].Add(uint64(v))
	}
}

// Reset zeroes every counter and histogram. Concurrent updates during a
// reset land in whichever side of the sweep reaches their cell.
func (m *Telemetry) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		for c := range s.counters {
			s.counters[c].Store(0)
		}
		for h := range s.buckets {
			for b := range s.buckets[h] {
				s.buckets[h][b].Store(0)
			}
			s.sums[h].Store(0)
		}
	}
}

// Counter sums c across all shards.
func (m *Telemetry) Counter(c Counter) uint64 {
	var n uint64
	for i := range m.shards {
		n += m.shards[i].counters[c].Load()
	}
	return n
}

// active is the globally installed Telemetry the hook helpers feed.
var active atomic.Pointer[Telemetry]

// base anchors Now; time.Since on a monotonic base compiles to a
// nanotime read and a subtraction, with no allocation.
var base = time.Now()

// Enable installs m as the global hook target (nil disables) and
// returns m.
func Enable(m *Telemetry) *Telemetry {
	active.Store(m)
	return m
}

// Disable uninstalls the global hook target.
func Disable() { active.Store(nil) }

// Active returns the installed Telemetry, or nil when disabled. Hook
// sites that need several recordings (or a timestamp) load it once.
//
//lockvet:noalloc
func Active() *Telemetry { return active.Load() }

// Enabled reports whether a global Telemetry is installed.
//
//lockvet:noalloc
func Enabled() bool { return active.Load() != nil }

// Inc records 1 to c on the installed Telemetry; a no-op (one atomic
// load, one branch, no allocation) when disabled.
//
//lockvet:noalloc
func Inc(t *threading.Thread, c Counter) {
	if m := active.Load(); m != nil {
		m.Inc(t, c)
	}
}

// Add records n to c on the installed Telemetry; no-op when disabled.
//
//lockvet:noalloc
func Add(t *threading.Thread, c Counter, n uint64) {
	if m := active.Load(); m != nil {
		m.Add(t, c, n)
	}
}

// Observe records v into h on the installed Telemetry; no-op when
// disabled.
//
//lockvet:noalloc
func Observe(t *threading.Thread, h Histo, v int64) {
	if m := active.Load(); m != nil {
		m.Observe(t, h, v)
	}
}

// Now returns monotonic nanoseconds since process start, suitable for
// latency observations. It does not allocate.
//
//lockvet:noalloc
func Now() int64 { return int64(time.Since(base)) }
