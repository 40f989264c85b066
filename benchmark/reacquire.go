package main

import (
	"thinlock/internal/jcl"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// The reacquire workload: one thread drives a seeded stream of class
// library calls at a long-lived working set of eight synchronized
// containers (the sessiond/javalex shape). Every lock is a reacquisition
// of an object this thread has locked before, so the fast-path word
// operations do almost all the lock work and no slow-path layer runs.
const (
	reacqCalls  = 900_000 // library calls per sample
	reacqTables = 3       // members 0..2 are Hashtables
	reacqVecs   = 2       // then Vectors
	reacqBufs   = 2       // then StringBuffers, then one BitSet
	reacqKeys   = 64      // keys per Hashtable
	reacqVecCap = 256     // a Vector drops its oldest element when full
	reacqBufCap = 512     // a StringBuffer is reset past this length
	reacqBits   = 2048    // BitSet index range
)

const reacqMembers = reacqTables + reacqVecs + reacqBufs + 1

// reacqOp is one library call: a method of working-set member target. With
// wrap the workload itself synchronizes on the member around the call, so
// a call that nests inside the library (Vector.addElement calls
// ensureCapacity) reaches depth 3.
type reacqOp struct {
	target uint8
	method uint8
	wrap   bool
	arg    uint16
}

type reacqInput struct{ ops []reacqOp }

var reacqWords = []string{"id", "user", "session", "cart", "token", "ts", "k", "value"}

func buildReacquire(seed uint64, scale float64) (input, error) {
	rng := newRNG(seed, "reacquire")
	ops := make([]reacqOp, scaled(reacqCalls, scale, 64))
	for i := range ops {
		op := reacqOp{
			target: uint8(rng.IntN(reacqMembers)),
			wrap:   rng.IntN(4) == 0,
			arg:    uint16(rng.IntN(1 << 16)),
		}
		// Method weights per member kind: reads dominate, as in the
		// paper's javalex and sessiond call profiles.
		r := rng.IntN(16)
		switch {
		case op.target < reacqTables: // get, put, containsKey, size
			op.method = uint8(pick(r, 8, 5, 2, 1))
		case op.target < reacqTables+reacqVecs: // elementAt, addElement, setElementAt, size
			op.method = uint8(pick(r, 8, 4, 3, 1))
		case op.target < reacqTables+reacqVecs+reacqBufs: // appendChar, append, appendInt, length
			op.method = uint8(pick(r, 6, 5, 3, 2))
		default: // get, set, clear, cardinality
			op.method = uint8(pick(r, 9, 4, 2, 1))
		}
		ops[i] = op
	}
	return &reacqInput{ops: ops}, nil
}

// pick maps r in [0, Σw) to the index of its weight bucket.
func pick(r int, w ...int) int {
	for i, n := range w {
		if r < n {
			return i
		}
		r -= n
	}
	return len(w) - 1
}

func (in *reacqInput) run(s *sample) (uint64, error) {
	var sum uint64
	err := s.parallel(1, func(t *threading.Thread, _ int) error {
		var err error
		sum, err = in.drive(s, t)
		return err
	})
	return sum, err
}

func (in *reacqInput) drive(s *sample, t *threading.Thread) (uint64, error) {
	ctx := jcl.NewContext(s.locker, s.heap)
	var (
		tables [reacqTables]*jcl.Hashtable
		vecs   [reacqVecs]*jcl.Vector
		bufs   [reacqBufs]*jcl.StringBuffer
		vlen   [reacqVecs]int
		blen   [reacqBufs]int
		objs   = make([]*object.Object, 0, reacqMembers)
	)
	for i := range tables {
		tables[i] = ctx.NewHashtable()
		objs = append(objs, tables[i].Object())
	}
	for i := range vecs {
		vecs[i] = ctx.NewVector()
		objs = append(objs, vecs[i].Object())
	}
	for i := range bufs {
		bufs[i] = ctx.NewStringBuffer()
		objs = append(objs, bufs[i].Object())
	}
	bits := ctx.NewBitSet(reacqBits)
	objs = append(objs, bits.Object())

	var sum uint64
	for _, op := range in.ops {
		o := objs[op.target]
		if op.wrap {
			s.locker.Lock(t, o)
		}
		arg := int(op.arg)
		sp := s.begin(t)
		switch k := int(op.target); {
		case k < reacqTables:
			h := tables[k]
			key := arg % reacqKeys
			switch op.method {
			case 0:
				if v, ok := h.Get(t, key).(int); ok {
					sum = mix(sum, uint64(v))
				}
			case 1:
				h.Put(t, key, arg>>8)
			case 2:
				if h.ContainsKey(t, key) {
					sum = mix(sum, uint64(key))
				}
			default:
				sum = mix(sum, uint64(h.Size(t)))
			}
		case k < reacqTables+reacqVecs:
			k -= reacqTables
			v := vecs[k]
			switch {
			case op.method == 1 || vlen[k] == 0:
				if vlen[k] == reacqVecCap {
					v.RemoveElementAt(t, 0)
					vlen[k]--
				}
				v.AddElement(t, arg>>8)
				vlen[k]++
			case op.method == 0:
				sum = mix(sum, uint64(v.ElementAt(t, arg%vlen[k]).(int)))
			case op.method == 2:
				v.SetElementAt(t, arg>>8, arg%vlen[k])
			default:
				sum = mix(sum, uint64(v.Size(t)))
			}
		case k < reacqTables+reacqVecs+reacqBufs:
			k -= reacqTables + reacqVecs
			b := bufs[k]
			if blen[k] > reacqBufCap {
				b.SetLength(t, 0)
				blen[k] = 0
			}
			switch op.method {
			case 0:
				b.AppendChar(t, byte('a'+arg%26))
				blen[k]++
			case 1:
				w := reacqWords[arg%len(reacqWords)]
				b.Append(t, w)
				blen[k] += len(w)
			case 2:
				b.AppendInt(t, int64(arg%1000))
				blen[k] += digits(arg % 1000)
			default:
				sum = mix(sum, uint64(b.Length(t)))
			}
		default:
			i := arg % reacqBits
			switch op.method {
			case 0:
				if bits.Get(t, i) {
					sum = mix(sum, uint64(i))
				}
			case 1:
				bits.Set(t, i)
			case 2:
				bits.Clear(t, i)
			default:
				sum = mix(sum, uint64(bits.Cardinality(t)))
			}
		}
		s.end(t, layerJCL, sp)
		if op.wrap {
			if err := unlock(s.locker, t, o); err != nil {
				return 0, err
			}
		}
	}
	for i := range tables {
		sum = mix(sum, uint64(tables[i].Size(t)))
	}
	for i := range bufs {
		sum = mix(sum, hashString(bufs[i].String(t)))
	}
	sum = mix(sum, uint64(bits.Cardinality(t)))
	s.keep = []any{tables, vecs, bufs, bits}
	return sum, s.released(t, objs...)
}

// digits returns the length of n's decimal rendering.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
