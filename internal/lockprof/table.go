package lockprof

import (
	"sync/atomic"

	"thinlock/internal/lockevent"
)

// The profiler's per-site and per-object tables are fixed-size,
// open-addressed hash tables of atomic record pointers, split into
// shards selected by the key hash. Insertion is a CAS of an empty slot;
// readers follow the published pointer. There are no locks anywhere on
// the record path, so a slow-path hook can never block behind another
// thread's bookkeeping. Capacity is bounded: when a shard's probe
// window is exhausted the event is counted in a drop counter instead of
// growing the table (a profiler must never amplify the memory of the
// system it watches).

const (
	// numShards splits each table; the shard is chosen by the top hash
	// bits so probe sequences in different shards never interleave.
	numShards = 16
	// siteSlotsPerShard bounds distinct sites per shard (total 4096).
	siteSlotsPerShard = 256
	// objSlotsPerShard bounds distinct objects per shard (total 8192).
	objSlotsPerShard = 512
	// maxProbe is the linear probe window before an insert gives up.
	maxProbe = 64
)

// siteShard is one shard of the site table.
type siteShard struct {
	slots [siteSlotsPerShard]atomic.Pointer[SiteRecord]
}

// siteTable maps sites to records.
type siteTable struct {
	shards [numShards]siteShard
	drops  atomic.Uint64
}

// get returns the record for k, inserting a fresh one if needed.
// Returns nil (and counts a drop) when the shard's probe window is
// full. Safe for concurrent use; the insert allocates once per site.
func (tb *siteTable) get(k lockevent.Site) *SiteRecord {
	h := k.Hash()
	sh := &tb.shards[(h>>60)&(numShards-1)]
	idx := h & (siteSlotsPerShard - 1)
	for i := uint64(0); i < maxProbe; i++ {
		slot := &sh.slots[(idx+i)&(siteSlotsPerShard-1)]
		r := slot.Load()
		if r == nil {
			nr := &SiteRecord{Key: k}
			if slot.CompareAndSwap(nil, nr) {
				return nr
			}
			r = slot.Load()
		}
		if r.Key == k {
			return r
		}
	}
	tb.drops.Add(1)
	return nil
}

// snapshot collects every published record.
func (tb *siteTable) snapshot() []*SiteRecord {
	var out []*SiteRecord
	for s := range tb.shards {
		for i := range tb.shards[s].slots {
			if r := tb.shards[s].slots[i].Load(); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// objShard is one shard of the object table.
type objShard struct {
	slots [objSlotsPerShard]atomic.Pointer[ObjectRecord]
}

// objTable maps object ids to records.
type objTable struct {
	shards [numShards]objShard
	drops  atomic.Uint64
}

// objHash mixes an object id (a SplitMix64 finalizer round).
func objHash(id uint64) uint64 {
	id ^= id >> 30
	id *= 0xbf58476d1ce4e5b9
	id ^= id >> 27
	id *= 0x94d049bb133111eb
	id ^= id >> 31
	return id
}

// get returns the record for object id, inserting one (recording class)
// if needed; nil when the probe window is full.
func (tb *objTable) get(id uint64, class string) *ObjectRecord {
	h := objHash(id)
	sh := &tb.shards[(h>>60)&(numShards-1)]
	idx := h & (objSlotsPerShard - 1)
	for i := uint64(0); i < maxProbe; i++ {
		slot := &sh.slots[(idx+i)&(objSlotsPerShard-1)]
		r := slot.Load()
		if r == nil {
			nr := &ObjectRecord{ID: id, Class: class}
			if slot.CompareAndSwap(nil, nr) {
				return nr
			}
			r = slot.Load()
		}
		if r.ID == id {
			return r
		}
	}
	tb.drops.Add(1)
	return nil
}

// snapshot collects every published record.
func (tb *objTable) snapshot() []*ObjectRecord {
	var out []*ObjectRecord
	for s := range tb.shards {
		for i := range tb.shards[s].slots {
			if r := tb.shards[s].slots[i].Load(); r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}
