// Package directory implements the home-node directory state of a cc-NUMA
// hub: the per-line directory entries of a distributed write-invalidate
// protocol (with the paper's extra DELE state and ownerID field), and the
// directory cache whose entries are extended with the producer-consumer
// sharing detector. Only lines with entries resident in the directory
// cache have their access histories tracked (§2.2); the detector bits are
// discarded on eviction.
package directory

import (
	"fmt"

	"pccsim/internal/addrtab"
	"pccsim/internal/cache"
	"pccsim/internal/msg"
	"pccsim/internal/predictor"
)

// State is the global coherence state of a line at its home node.
type State uint8

const (
	// Unowned: memory has the only copy.
	Unowned State = iota
	// Shared: one or more nodes hold read-only copies; memory is clean.
	Shared
	// Excl: exactly one node owns the line; memory may be stale.
	Excl
	// BusyShared: a 3-hop read is in flight (intervention outstanding).
	BusyShared
	// BusyExcl: a 3-hop ownership transfer is in flight.
	BusyExcl
	// Dele: directory management is delegated to the producer (§2.3.1);
	// Owner records the delegated home node.
	Dele
)

var stateNames = [...]string{
	Unowned:    "UNOWNED",
	Shared:     "SHARED",
	Excl:       "EXCL",
	BusyShared: "BUSY_S",
	BusyExcl:   "BUSY_X",
	Dele:       "DELE",
}

func (s State) String() string { return stateNames[s] }

// Busy reports whether the state is one of the transient busy states.
func (s State) Busy() bool { return s == BusyShared || s == BusyExcl }

// Entry is the directory record for one line. The four one-byte fields
// lead so that they share one word (TestEntrySize pins 152 bytes).
type Entry struct {
	State State
	// PendingExcl records whether the busy transaction grants exclusivity.
	PendingExcl bool
	// PC marks the line as detected producer-consumer. It survives
	// directory-cache eviction (in hardware it would be rediscovered;
	// keeping it models the "stable pattern" the paper requires).
	PC bool
	// UpdatePending is set between a producer's write and the delayed
	// intervention (see the speculative-update fields below).
	UpdatePending bool

	Sharers msg.Vector // read-only copy holders (Shared) or last consumer set
	Owner   msg.NodeID // exclusive owner (Excl/Busy) or delegated home (Dele)
	// OwnerID is the paper's §2.4.2 extension: when a producer-consumer
	// line goes SHARED->EXCL the old sharing vector is preserved in
	// Sharers and the new owner recorded here, so updates can target the
	// most recent consumer set.
	OwnerID msg.NodeID
	// Pending is the requester being served while the entry is busy.
	Pending msg.NodeID
	// PendingTxn is the pending requester's transaction number, echoed
	// in the reply if the home completes the request itself after a
	// writeback race.
	PendingTxn uint64
	// OwnerTxn is the current ownership epoch: the Txn of the request
	// that granted Owner its exclusive copy. Interventions carry it so
	// owners can recognize stale ones (see msg.Message.GrantTxn).
	OwnerTxn uint64
	// MemVersion is the abstract version of the line held in home memory
	// (runtime invariant checking).
	MemVersion uint64

	// Speculative-update machinery (§2.4). While the producer holds the
	// line EXCL, Sharers preserves the old sharing vector and UpdateSet
	// snapshots it as the push target set. UpdatePending is set between
	// the write and the delayed intervention; WriteSeq cancels stale
	// intervention timers; UpdatesInFlight counts unacknowledged pushes
	// — further writes to the line are deferred until it drains, which
	// keeps updates ordered behind invalidations.
	UpdateSet       msg.Vector
	WriteSeq        uint64
	UpdatesInFlight int

	// Adaptive-delay extension (§5 / §3.3.2): DelayHint is the line's
	// learned intervention delay (0 = use the configured default) and
	// DowngradeAt records when the last delayed intervention fired, so
	// a too-early downgrade (producer rewrites immediately) can be
	// recognized and the hint grown.
	DelayHint   uint64
	DowngradeAt uint64
}

func (e *Entry) String() string {
	return fmt.Sprintf("%s sharers=%v owner=%d pending=%d pc=%v",
		e.State, e.Sharers.Nodes(), e.Owner, e.Pending, e.PC)
}

// entryChunk sizes the arena blocks entries are allocated from: one
// allocation per 64 lines instead of one per line. Entry pointers handed
// out stay stable because a full chunk is retired (still referenced by the
// table) rather than reallocated.
const entryChunk = 64

// Directory is the full per-home-node directory. Entries are materialized
// on first use (hardware keeps them in memory next to the data) into an
// open-addressed, line-indexed table sized to the touched address range.
type Directory struct {
	entries addrtab.Table[*Entry]
	arena   []Entry
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{}
}

// Entry returns the directory entry for the line, creating an Unowned one
// on first reference.
func (d *Directory) Entry(addr msg.Addr) *Entry {
	slot, ok := d.entries.Slot(uint64(addr))
	if ok {
		return *slot
	}
	if len(d.arena) == cap(d.arena) {
		d.arena = make([]Entry, 0, entryChunk)
	}
	d.arena = append(d.arena, Entry{State: Unowned, Owner: msg.None, OwnerID: msg.None, Pending: msg.None})
	*slot = &d.arena[len(d.arena)-1]
	return *slot
}

// Peek returns the entry if it exists, without creating one.
func (d *Directory) Peek(addr msg.Addr) *Entry {
	e, _ := d.entries.Get(uint64(addr))
	return e
}

// Len returns the number of materialized entries.
func (d *Directory) Len() int { return d.entries.Len() }

// ForEach visits every materialized entry.
func (d *Directory) ForEach(fn func(msg.Addr, *Entry)) {
	d.entries.Range(func(k uint64, e *Entry) bool {
		fn(msg.Addr(k), e)
		return true
	})
}

// DirCache is the directory cache: a set-associative cache of recently
// referenced directory entries whose (and only whose) access histories are
// tracked by the producer-consumer detector. Evicting an entry discards the
// detector bits, exactly as §2.2 prescribes ("these extra 8 bits ... are
// not saved if the directory entry is flushed from the directory cache").
// Its storage is allocated on first touch (see cache.Array).
type DirCache struct {
	dets     *cache.Array[predictor.Detector]
	pairMode bool
	Evicts   uint64 // capacity evictions (stats)
}

// dirLineBytes is the directory's line: entries are per 128-byte line.
const dirLineBytes = 128

// NewDirCache creates a directory cache with the given total entry count
// and associativity; entries must be a power-of-two multiple of ways.
func NewDirCache(entries, ways int) *DirCache {
	sets, err := cache.SetCount(entries, ways, 1)
	if err != nil {
		panic("directory: bad dircache geometry: " + err.Error())
	}
	return &DirCache{dets: cache.NewArray[predictor.Detector](sets, ways, dirLineBytes)}
}

// SetPairMode switches every detector to the two-writer extension (§5):
// the resident ones now, and every detector a later fill resets.
func (c *DirCache) SetPairMode(on bool) {
	c.pairMode = on
	c.dets.ForEach(func(d *predictor.Detector) { d.SetPairMode(on) })
}

// Detector returns the sharing detector for addr, allocating a
// directory-cache entry (and possibly evicting another, losing its
// history) if addr is not resident.
func (c *DirCache) Detector(addr msg.Addr) *predictor.Detector {
	if d := c.dets.Touch(uint64(addr)); d != nil {
		return d
	}
	d, prior := c.dets.Fill(uint64(addr), nil)
	if prior == cache.WasEvicted {
		c.Evicts++
	}
	*d = predictor.Detector{}
	d.SetPairMode(c.pairMode)
	return d
}

// Resident reports whether addr currently has a directory-cache entry.
func (c *DirCache) Resident(addr msg.Addr) bool { return c.dets.Lookup(uint64(addr)) != nil }
