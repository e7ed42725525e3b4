// Package addrtab provides an open-addressed hash table keyed by physical
// line addresses, replacing the runtime map on the simulator's hottest
// metadata paths (directory entries, MSHRs). Protocol state is looked up
// once per message hop, so the table trades the generality of map[Addr]V —
// hash seeding, bucket chaining, incremental growth — for a flat
// linear-probed array with Fibonacci hashing on the line index: one
// multiply, one shift, and a near-always-first-slot hit at the load
// factors a simulation cell sustains.
package addrtab

// fib is the 64-bit Fibonacci hashing multiplier (2^64 / golden ratio).
// Line addresses are 128-byte aligned, so their low 7 bits are zero; the
// multiply diffuses the line index across the high bits the shift keeps.
const fib = 0x9E3779B97F4A7C15

// Table maps line addresses to values. The zero value is an empty table
// ready for use. Not safe for concurrent mutation (each simulated hub owns
// its tables, matching the engine's single-threaded event loop).
type Table[V any] struct {
	// keys holds search keys offset by one so the zero word marks an
	// empty slot (address 0 is a valid line address).
	keys  []uint64
	vals  []V
	n     int
	shift uint
}

// Len reports the number of stored entries.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) grow() {
	size := 2 * len(t.keys)
	if size == 0 {
		size = 64
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	t.shift = 64 - uint(len64(size))
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.Put(k-1, oldVals[i])
		}
	}
}

// len64 returns log2 of the power-of-two size.
func len64(size int) int {
	b := 0
	for size > 1 {
		size >>= 1
		b++
	}
	return b
}

// home returns the preferred slot for a (stored, offset) key.
func (t *Table[V]) home(k uint64) int {
	return int(((k - 1) * fib) >> t.shift)
}

// Get returns the value stored under key and whether it was present.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	mask := len(t.keys) - 1
	k := key + 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			var zero V
			return zero, false
		}
	}
}

// Put stores v under key, replacing any existing value.
func (t *Table[V]) Put(key uint64, v V) {
	p, _ := t.Slot(key)
	*p = v
}

// Slot returns a pointer to the value stored under key and whether key
// was present, inserting key with the zero value when it was not. One
// probe serves the lookup and the insertion, and the table grows only
// when it inserts. The pointer is valid until the next insertion or
// deletion.
func (t *Table[V]) Slot(key uint64) (*V, bool) {
	if len(t.keys) == 0 {
		t.grow()
	}
	mask := len(t.keys) - 1
	k := key + 1
	i := t.home(k)
	for ; t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == k {
			return &t.vals[i], true
		}
	}
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
		return t.Slot(key)
	}
	t.keys[i] = k
	t.n++
	return &t.vals[i], false
}

// Delete removes key, reporting whether it was present. Removal uses
// backward-shift compaction rather than tombstones, so long-lived tables
// (MSHRs churn one entry per miss) never degrade.
func (t *Table[V]) Delete(key uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.keys) - 1
	k := key + 1
	i := t.home(k)
	for {
		switch t.keys[i] {
		case k:
			goto found
		case 0:
			return false
		}
		i = (i + 1) & mask
	}
found:
	// Shift later probe-chain members back over the hole: an entry at j
	// may move to the hole at i only if its home slot lies cyclically at
	// or before i (otherwise the move would break its own chain).
	var zero V
	j := i
	for {
		j = (j + 1) & mask
		kj := t.keys[j]
		if kj == 0 {
			break
		}
		h := t.home(kj)
		// Move iff h is not in the cyclic interval (i, j].
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i] = kj
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.vals[i] = zero
	t.n--
	return true
}

// Range visits every entry until fn returns false. Iteration order is
// unspecified (as with the built-in map, callers needing determinism must
// sort).
func (t *Table[V]) Range(fn func(key uint64, v V) bool) {
	for i, k := range t.keys {
		if k != 0 {
			if !fn(k-1, t.vals[i]) {
				return
			}
		}
	}
}
