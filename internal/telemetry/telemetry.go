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
//   - the counters are fed by internal/lockevent, the lock
//     implementations' one event path: Enable installs the Telemetry as
//     an observer of the counted kinds and the timed spans. It does not
//     consume acquire and release, so with only telemetry enabled the
//     uncontended thin-lock cycle calls no observer, and disabled it
//     costs every emit one load and a not-taken branch, allocating
//     nothing;
//   - the counted events come from slow paths (lock slow path, monitor
//     queueing, cache lookups) plus the VM's monitorenter/monitorexit
//     dispatch and the biased owner's reacquire — the paper's
//     17-instruction thin-lock fast path emits nothing telemetry counts.
//
// The overhead contract is enforced by the benchmarks and allocation
// tests in overhead_test.go.
package telemetry

import (
	"math/bits"
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Counter enumerates the runtime counters: one per counted
// lockevent kind, at the kind's own index, so an event needs no mapping
// to find its counter. Each counts the events of its kind; see the kind
// for what the event is. Names are given by Name.
type Counter uint8

const (
	CtrSlowPathEntries           = Counter(lockevent.SlowEnter)
	CtrCASFailures               = Counter(lockevent.CASFail)
	CtrInflationsContention      = Counter(lockevent.InflateContention)
	CtrInflationsOverflow        = Counter(lockevent.InflateOverflow)
	CtrInflationsWait            = Counter(lockevent.InflateWait)
	CtrDeflations                = Counter(lockevent.Deflate)
	CtrSpinRounds                = Counter(lockevent.Spin)
	CtrQueuedParks               = Counter(lockevent.QueuedPark)
	CtrFLCWakeups                = Counter(lockevent.QueueWake)
	CtrMonitorContendedEntries   = Counter(lockevent.Enqueue)
	CtrMonitorHandoffs           = Counter(lockevent.Handoff)
	CtrMonitorRetirements        = Counter(lockevent.Retire)
	CtrWaits                     = Counter(lockevent.MonitorWait)
	CtrWaitTimerWakeups          = Counter(lockevent.WaitTimeout)
	CtrNotifies                  = Counter(lockevent.Notify)
	CtrVMMonitorEnter            = Counter(lockevent.VMEnter)
	CtrVMMonitorExit             = Counter(lockevent.VMExit)
	CtrCacheLookups              = Counter(lockevent.CacheLookup)
	CtrCacheMisses               = Counter(lockevent.CacheMiss)
	CtrCacheSweeps               = Counter(lockevent.CacheSweep)
	CtrHotOps                    = Counter(lockevent.HotOp)
	CtrColdOps                   = Counter(lockevent.ColdOp)
	CtrHotPromotions             = Counter(lockevent.HotPromote)
	CtrColdSweeps                = Counter(lockevent.ColdSweep)
	CtrBiasInstalls              = Counter(lockevent.BiasInstall)
	CtrBiasedAcquires            = Counter(lockevent.BiasAcquire)
	CtrBiasTransfers             = Counter(lockevent.BiasTransfer)
	CtrBiasRevocationsContention = Counter(lockevent.RevokeContention)
	CtrBiasRevocationsOverflow   = Counter(lockevent.RevokeOverflow)
	CtrBiasRevocationsWait       = Counter(lockevent.RevokeWait)
	CtrBulkRebiases              = Counter(lockevent.BulkRebias)
	CtrBulkRevokes               = Counter(lockevent.BulkRevoke)
	CtrMonitorFrees              = Counter(lockevent.Free)
	CtrMonitorRecycles           = Counter(lockevent.Recycle)

	// NumCounters is the number of defined counters.
	NumCounters = Counter(lockevent.NumCounted)
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

// LockEvent implements lockevent.Observer: a counted kind adds one to
// the counter at its index, and the timed kinds feed their histograms.
//
//lockvet:noalloc
func (m *Telemetry) LockEvent(k lockevent.Kind, t *threading.Thread, _ *object.Object, v int64) {
	if k < lockevent.NumCounted {
		m.Inc(t, Counter(k))
	}
	switch k {
	case lockevent.Enqueue:
		m.Observe(t, HistEntryQueueDepth, v)
	case lockevent.SlowExit:
		m.Observe(t, HistAcquireSlowNs, v)
	case lockevent.Unpark:
		m.Observe(t, HistMonitorStallNs, v)
	case lockevent.Unblock:
		m.Observe(t, HistBiasHandshakeNs, v)
	}
}

// consumes is the set of kinds LockEvent records.
var consumes = lockevent.Counted | lockevent.Of(lockevent.SlowExit, lockevent.Unpark, lockevent.Unblock)

// active is the globally installed Telemetry.
var active atomic.Pointer[Telemetry]

// Enable installs m as the global lock-event observer (nil disables)
// and returns m.
func Enable(m *Telemetry) *Telemetry {
	active.Store(m)
	var obs lockevent.Observer // stays nil for a nil m
	if m != nil {
		obs = m
	}
	lockevent.Install(lockevent.SlotTelemetry, obs, consumes)
	return m
}

// Disable uninstalls the global observer.
func Disable() { Enable(nil) }

// Active returns the installed Telemetry, or nil when disabled.
//
//lockvet:noalloc
func Active() *Telemetry { return active.Load() }

// Enabled reports whether a global Telemetry is installed.
//
//lockvet:noalloc
func Enabled() bool { return active.Load() != nil }

// Now returns monotonic nanoseconds since process start, suitable for
// latency observations: the clock of internal/lockevent's spans. It
// does not allocate.
//
//lockvet:noalloc
func Now() int64 { return lockevent.Now() }
