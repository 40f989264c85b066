package lockdep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"thinlock/internal/lockevent"
)

// Sites are interned into a bounded table and referred to everywhere
// else by a small integer id, so held entries, wait states, graph edges
// and ring events can store a site in one atomic word.

// maxSites bounds the number of distinct sites; past it, captures
// resolve to site id 0 ("site table full") and a drop is counted.
const maxSites = 2048

// siteProbe is the linear probe window before an insert gives up.
const siteProbe = 64

// siteRec is one interned site. The label is symbolized lazily, off the
// hook paths.
type siteRec struct {
	key  lockevent.Site
	id   uint32
	once sync.Once
	lbl  string
}

// label resolves and caches the human-readable site label.
func (r *siteRec) label() string {
	r.once.Do(func() {
		if r.key.IsVM() {
			r.lbl = fmt.Sprintf("%s @%d", r.key.VMMethod, r.key.VMPC)
		} else {
			r.lbl = lockevent.Label(r.key.Frames())
		}
	})
	return r.lbl
}

// siteTable interns sites into small ids: a single open-addressed
// array of atomic pointers, CAS-inserted, never resized. A record's id
// is its slot index plus one, so id→record lookup is a direct index.
type siteTable struct {
	slots [maxSites]atomic.Pointer[siteRec]
	drops atomic.Uint64
}

// get returns the id for k, interning it if new; 0 when the probe
// window around its hash is full.
func (tb *siteTable) get(k lockevent.Site) uint32 {
	h := k.Hash()
	idx := h & (maxSites - 1)
	for i := uint64(0); i < siteProbe; i++ {
		slot := (idx + i) & (maxSites - 1)
		r := tb.slots[slot].Load()
		if r == nil {
			nr := &siteRec{key: k, id: uint32(slot) + 1}
			if tb.slots[slot].CompareAndSwap(nil, nr) {
				return nr.id
			}
			r = tb.slots[slot].Load()
		}
		if r.key == k {
			return r.id
		}
	}
	tb.drops.Add(1)
	return 0
}

// byID returns the record for a site id, or nil for 0 / out of range.
func (tb *siteTable) byID(id uint32) *siteRec {
	if id == 0 || id > maxSites {
		return nil
	}
	return tb.slots[id-1].Load()
}

// SiteLabel returns the display label for a site id ("?" for 0).
func (d *Lockdep) SiteLabel(id uint32) string {
	r := d.sites.byID(id)
	if r == nil {
		return "?"
	}
	return r.label()
}
