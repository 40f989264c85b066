package bench

import (
	"fmt"
	"strings"
	"unsafe"

	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/jcl"
	"thinlock/internal/lockstat"
	"thinlock/internal/monitor"
	"thinlock/internal/monitorcache"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

// Space model for the paper's storage argument (§1, §5): thin locks use
// 24 bits that already exist in the object header, so their only
// dedicated storage is the fat locks created by contention; the monitor
// cache and hot locks keep multi-word monitor structures outside objects
// for every (cached) synchronized object.

// MonitorBytes is the size of one heavy-weight monitor structure, the
// "multi-word structure" of §2.1, less its queues: one word holding the
// owner, a queued bit and the lock count, since blocked threads wait on
// the parking lot. The
// monitor table holds monitors by value, so a monitor costs no table
// slot, and the baselines' standalone monitors are the same structure.
const MonitorBytes = int(unsafe.Sizeof(monitor.Monitor{}))

// ObjectBytes is the size of one object, header words included. Thin
// locks live in its header word, so it is the space every lock
// implementation starts from; the table prints it beside MonitorBytes.
const ObjectBytes = int(unsafe.Sizeof(object.Object{}))

// CacheEntryBytes models one monitor-cache binding (hash-table entry:
// key, pointer, chain).
const CacheEntryBytes = 24

// SpaceRow is the dedicated lock storage one implementation used for one
// workload.
type SpaceRow struct {
	Impl string
	// SyncedObjects is how many distinct objects were locked.
	SyncedObjects int
	// Structures is how many monitor structures exist at the end of the
	// run.
	Structures int
	// Bytes is the dedicated lock storage: Structures monitors of
	// MonitorBytes each, plus modeled cache bindings.
	Bytes int
}

// SpaceUsage runs the workload once under each implementation and
// reports its lock-storage footprint.
func SpaceUsage(w workloads.Workload, size int) ([]SpaceRow, error) {
	var rows []SpaceRow

	// ThinLock: dedicated storage = inflated monitors only.
	{
		l := core.NewDefault()
		rec := lockstat.New(l)
		synced, err := runWorkload(rec, w, size)
		if err != nil {
			return nil, err
		}
		fat := l.Stats().FatLocks
		rows = append(rows, SpaceRow{
			Impl:          "ThinLock",
			SyncedObjects: synced,
			Structures:    fat,
			Bytes:         fat * MonitorBytes,
		})
	}

	// JDK111: the whole monitor pool plus live cache bindings.
	{
		l := monitorcache.NewDefault()
		rec := lockstat.New(l)
		synced, err := runWorkload(rec, w, size)
		if err != nil {
			return nil, err
		}
		pool := l.PoolSize()
		rows = append(rows, SpaceRow{
			Impl:          "JDK111",
			SyncedObjects: synced,
			Structures:    pool,
			Bytes:         pool*MonitorBytes + l.BoundMonitors()*CacheEntryBytes,
		})
	}

	// IBM112: 32 hot locks plus the cold cache's fat locks.
	{
		l := hotlocks.NewDefault()
		rec := lockstat.New(l)
		synced, err := runWorkload(rec, w, size)
		if err != nil {
			return nil, err
		}
		structures := l.Slots() + l.ColdCount()
		rows = append(rows, SpaceRow{
			Impl:          "IBM112",
			SyncedObjects: synced,
			Structures:    structures,
			Bytes:         structures*MonitorBytes + l.ColdCount()*CacheEntryBytes,
		})
	}

	return rows, nil
}

// runWorkload executes w under the instrumented locker and returns the
// synced-object count.
func runWorkload(rec *lockstat.Recorder, w workloads.Workload, size int) (int, error) {
	ctx := jcl.NewContext(rec, object.NewHeap())
	reg := threading.NewRegistry()
	t, err := reg.Attach("space")
	if err != nil {
		return 0, err
	}
	w.Run(ctx, t, size)
	return rec.Snapshot().SyncedObjects, nil
}

// FormatSpace renders the space comparison for a set of workloads. The
// rows of a multi-threaded workload (workloads.Workload.Concurrent) are
// marked, with a footnote: contention creates monitors, so their
// structure counts depend on scheduling and can differ between runs.
func FormatSpace(results map[string][]SpaceRow, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lock storage footprint (object=%dB and monitor=%dB measured, cache entry=%dB modeled)\n",
		ObjectBytes, MonitorBytes, CacheEntryBytes)
	fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s\n",
		"program", "impl", "sync.obj", "structures", "bytes")
	marked := false
	for _, name := range order {
		mark := ""
		if w, ok := workloads.ByName(name); ok && w.Concurrent {
			mark, marked = " *", true
		}
		for _, r := range results[name] {
			fmt.Fprintf(&b, "%-12s %-10s %12d %12d %12d%s\n",
				name, r.Impl, r.SyncedObjects, r.Structures, r.Bytes, mark)
		}
	}
	if marked {
		b.WriteString("* multi-threaded: the structure count depends on scheduling and can differ between runs\n")
	}
	return b.String()
}
