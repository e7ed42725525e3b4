// Package delegate implements the delegate cache of §2.3: a producer table
// tracking the directory state of lines delegated *to* this node, and a
// consumer table of hints mapping lines to their delegated home nodes.
//
// Producer entries (Figure 3: valid, 37-bit tag, 2-bit age, 32-bit
// DirEntry — 10 bytes) limit how many lines can be delegated to a node at
// once; we use the age field as an LRU clock so that accepting a new
// delegation when full evicts (undelegates) the oldest entry. Consumer
// entries (valid, tag, owner — 6 bytes) are pure hints: the table is 4-way
// set associative with random replacement, and stale or evicted entries
// only cost extra messages (NACK-and-retry through the real home).
package delegate

import (
	"math/rand"

	"pccsim/internal/directory"
	"pccsim/internal/msg"
)

// ProducerEntry is one delegated directory entry held at the producer.
// Dir carries the full delegated directory information, including the
// speculative-update fields of directory.Entry.
type ProducerEntry struct {
	Addr msg.Addr
	Dir  directory.Entry
	age  uint64
}

// ProducerTable tracks lines delegated to the local node. It is fully
// associative (the paper's tables are small: 32 or 1024 entries).
type ProducerTable struct {
	cap      int
	entries  map[msg.Addr]*ProducerEntry
	ageClock uint64
}

// NewProducerTable creates a producer table with the given entry capacity.
func NewProducerTable(capacity int) *ProducerTable {
	if capacity <= 0 {
		panic("delegate: producer table capacity must be positive")
	}
	return &ProducerTable{cap: capacity, entries: make(map[msg.Addr]*ProducerEntry, capacity)}
}

// Cap returns the table capacity.
func (t *ProducerTable) Cap() int { return t.cap }

// Len returns the number of live entries.
func (t *ProducerTable) Len() int { return len(t.entries) }

// Lookup returns the entry for addr (refreshing its age), or nil.
func (t *ProducerTable) Lookup(addr msg.Addr) *ProducerEntry {
	e := t.entries[addr]
	if e != nil {
		t.ageClock++
		e.age = t.ageClock
	}
	return e
}

// Peek returns the entry without refreshing recency.
func (t *ProducerTable) Peek(addr msg.Addr) *ProducerEntry { return t.entries[addr] }

// Insert adds a delegated entry. If the table is full, the oldest entry is
// removed and returned as victim (the caller must undelegate it: §2.3.3
// reason 1). Inserting an existing address overwrites it in place.
func (t *ProducerTable) Insert(addr msg.Addr, dir directory.Entry) (e *ProducerEntry, victim *ProducerEntry) {
	if old := t.entries[addr]; old != nil {
		t.ageClock++
		old.Dir = dir
		old.age = t.ageClock
		return old, nil
	}
	if len(t.entries) >= t.cap {
		victim = t.oldest()
		delete(t.entries, victim.Addr)
	}
	t.ageClock++
	e = &ProducerEntry{Addr: addr, Dir: dir, age: t.ageClock}
	t.entries[addr] = e
	return e, victim
}

func (t *ProducerTable) oldest() *ProducerEntry {
	var v *ProducerEntry
	for _, e := range t.entries {
		if v == nil || e.age < v.age || (e.age == v.age && e.Addr < v.Addr) {
			v = e
		}
	}
	return v
}

// Oldest returns the least recently used entry satisfying pred, or nil.
// The delegation-install path uses it to pick an undelegation victim whose
// speculative updates have drained.
func (t *ProducerTable) Oldest(pred func(*ProducerEntry) bool) *ProducerEntry {
	var v *ProducerEntry
	for _, e := range t.entries {
		if pred != nil && !pred(e) {
			continue
		}
		if v == nil || e.age < v.age || (e.age == v.age && e.Addr < v.Addr) {
			v = e
		}
	}
	return v
}

// Remove deletes the entry for addr, reporting whether it existed.
func (t *ProducerTable) Remove(addr msg.Addr) bool {
	if _, ok := t.entries[addr]; !ok {
		return false
	}
	delete(t.entries, addr)
	return true
}

// ForEach visits every entry.
func (t *ProducerTable) ForEach(fn func(*ProducerEntry)) {
	for _, e := range t.entries {
		fn(e)
	}
}

// ConsumerTable caches new-home hints: addr -> delegated home node. 4-way
// set associative with (deterministically seeded) random replacement.
type ConsumerTable struct {
	numSets int
	ways    int
	addrs   []msg.Addr
	homes   []msg.NodeID
	valid   []bool
	rng     *rand.Rand
}

// ConsumerWays is the consumer table's associativity.
const ConsumerWays = 4

// NewConsumerTable creates a consumer table with the given total entry
// count; entries/4 must be a power of two.
func NewConsumerTable(entries int) *ConsumerTable {
	const ways = ConsumerWays
	if entries < ways || entries%ways != 0 {
		panic("delegate: consumer table entries must be a multiple of 4")
	}
	numSets := entries / ways
	if numSets&(numSets-1) != 0 {
		panic("delegate: consumer table set count must be a power of two")
	}
	return &ConsumerTable{
		numSets: numSets,
		ways:    ways,
		addrs:   make([]msg.Addr, entries),
		homes:   make([]msg.NodeID, entries),
		valid:   make([]bool, entries),
		rng:     rand.New(rand.NewSource(0x5eed)),
	}
}

// Entries returns the table capacity.
func (t *ConsumerTable) Entries() int { return t.numSets * t.ways }

func (t *ConsumerTable) setBase(addr msg.Addr) int {
	return int((uint64(addr)>>7)&uint64(t.numSets-1)) * t.ways
}

// Lookup returns the hinted delegated home for addr.
func (t *ConsumerTable) Lookup(addr msg.Addr) (msg.NodeID, bool) {
	base := t.setBase(addr)
	for i := base; i < base+t.ways; i++ {
		if t.valid[i] && t.addrs[i] == addr {
			return t.homes[i], true
		}
	}
	return msg.None, false
}

// Insert records that addr's acting home is home, replacing a random way
// if the set is full.
func (t *ConsumerTable) Insert(addr msg.Addr, home msg.NodeID) {
	base := t.setBase(addr)
	slot := -1
	for i := base; i < base+t.ways; i++ {
		if t.valid[i] && t.addrs[i] == addr {
			slot = i // update in place
			break
		}
		if slot < 0 && !t.valid[i] {
			slot = i
		}
	}
	if slot < 0 {
		slot = base + t.rng.Intn(t.ways)
	}
	t.addrs[slot] = addr
	t.homes[slot] = home
	t.valid[slot] = true
}

// Remove drops the hint for addr (e.g. after a NackNotHome).
func (t *ConsumerTable) Remove(addr msg.Addr) {
	base := t.setBase(addr)
	for i := base; i < base+t.ways; i++ {
		if t.valid[i] && t.addrs[i] == addr {
			t.valid[i] = false
			return
		}
	}
}

// Count returns the number of valid hints.
func (t *ConsumerTable) Count() int {
	n := 0
	for _, v := range t.valid {
		if v {
			n++
		}
	}
	return n
}
