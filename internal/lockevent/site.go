package lockevent

import (
	"fmt"
	"runtime"
	"strings"

	"thinlock/internal/threading"
)

// MaxStackDepth is how many Go caller PCs a Site keeps: deep enough to
// reach through the lock implementation into the frame that asked for
// the lock.
const MaxStackDepth = 8

// Site identifies one lock site. Exactly one of two encodings is
// populated:
//
//   - an interpreter site: the executing method's qualified name and
//     the bytecode pc of the monitorenter (-1 for a synchronized-method
//     prologue), from the frame the thread published;
//   - a Go site: the caller PC chain, from the frame that emitted the
//     event outward.
//
// Site is comparable, so observers deduplicate records with ==.
type Site struct {
	// VMMethod is the interpreter method ("Class.method"), or "" for a
	// Go site.
	VMMethod string
	// VMPC is the bytecode pc of the acquisition.
	VMPC int32
	// PCs is the Go caller chain, leaf first; entries past Depth are
	// zero.
	PCs [MaxStackDepth]uintptr
	// Depth is the number of valid PCs.
	Depth uint8
}

// IsVM reports whether the site is an interpreter site.
func (k Site) IsVM() bool { return k.VMMethod != "" }

// Hash returns a 64-bit FNV-1a hash of the site.
func (k Site) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	for i := 0; i < len(k.VMMethod); i++ {
		h ^= uint64(k.VMMethod[i])
		h *= prime
	}
	mix(uint64(uint32(k.VMPC)))
	for i := uint8(0); i < k.Depth; i++ {
		mix(uint64(k.PCs[i]))
	}
	return h
}

// callersSkip counts the frames between runtime.Callers and the frame
// that emitted an event, when an observer's LockEvent calls a method
// that calls Capture: runtime.Callers, Capture, that method, LockEvent,
// the dispatch, and Emit or EmitValue.
const callersSkip = 6

// Capture returns t's current lock site: the interpreter frame t
// published, if any, else the Go caller chain from the frame that
// emitted the event outward. skip counts the frames an observer adds
// between the method its LockEvent calls and Capture. Allocation-free:
// the PC buffer lives in the returned value.
//
//lockvet:noalloc
func Capture(t *threading.Thread, skip int) Site {
	var k Site
	if t != nil {
		if method, pc, ok := t.Frame(); ok && method != "" {
			k.VMMethod, k.VMPC = method, pc
			return k
		}
	}
	k.Depth = uint8(runtime.Callers(callersSkip+skip, k.PCs[:]))
	return k
}

// Frame is one symbolized stack frame of a site.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// Frames symbolizes the site, leaf first: one synthetic <minijava>
// frame for an interpreter site, the resolved caller chain (inlined
// calls expanded) for a Go site.
func (k Site) Frames() []Frame {
	if k.IsVM() {
		return []Frame{{Func: k.VMMethod, File: "<minijava>", Line: int(k.VMPC)}}
	}
	frames := runtime.CallersFrames(k.PCs[:k.Depth])
	var out []Frame
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, Frame{Func: f.Function, File: f.File, Line: f.Line})
		}
		if !more {
			break
		}
	}
	return out
}

// internalFramePrefixes name the lock machinery: the frames Label
// skips so a site's name lands on the frame that asked for the lock.
var internalFramePrefixes = []string{
	"thinlock/internal/lockevent",
	"thinlock/internal/lockprof",
	"thinlock/internal/lockdep",
	"thinlock/internal/core",
	"thinlock/internal/biased",
	"thinlock/internal/monitor",
	"thinlock/internal/monitorcache",
	"thinlock/internal/hotlocks",
	"thinlock/internal/lockapi",
	// The jcl synchronized helper is pure lock plumbing; the
	// class-library methods above it (Vector.AddElement, ...) are the
	// meaningful sites.
	"thinlock/internal/jcl.(*Context).synchronized",
	"thinlock/internal/locktrace",
	"thinlock/internal/lockstat",
	"thinlock/internal/arch",
	"runtime",
}

func isInternalFrame(fn string) bool {
	for _, p := range internalFramePrefixes {
		if strings.HasPrefix(fn, p+".") || fn == p {
			return true
		}
	}
	return false
}

// Label names a symbolized Go site by its first frame outside the lock
// machinery, or by its leaf frame when every frame is internal.
func Label(frames []Frame) string {
	for _, f := range frames {
		if !isInternalFrame(f.Func) {
			return frameLabel(f)
		}
	}
	if len(frames) > 0 {
		return frameLabel(frames[0])
	}
	return "(unknown site)"
}

func frameLabel(f Frame) string {
	return fmt.Sprintf("%s (%s:%d)", f.Func, shortFile(f.File), f.Line)
}

// shortFile trims a file path to its last two components.
func shortFile(path string) string {
	slashes := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			slashes++
			if slashes == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}
