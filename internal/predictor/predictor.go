// Package predictor implements the producer-consumer sharing detector of
// §2.2. Each directory-cache entry carries three extra fields — last writer
// (4 bits), reader count (2-bit saturating) and a write-repeat counter
// (2-bit saturating) — 8 bits total, a 25% directory-cache entry overhead.
// The write-repeat counter increments each time two consecutive writes are
// performed by the same node with at least one intervening read by another
// node; a block is marked producer-consumer when it saturates. The detector
// deliberately trades accuracy for size: multiple-writer lines and
// false-sharing-heavy lines (as in CG) never saturate the counter and are
// never marked, which is exactly the conservatism the paper describes.
package predictor

import "pccsim/internal/msg"

// Saturation values for the 2-bit counters.
const (
	readerCountMax = 3
	writeRepeatMax = 3
)

// Detector is the per-directory-cache-entry sharing pattern detector.
// The zero value is the reset state. Every directory-cache entry of
// every node holds one, so its byte fields come first and it packs
// into 40 bytes: a writer id fits a byte because msg.MaxNodes is 256.
type Detector struct {
	lastWriter  uint8 // 4-bit field in hardware; valid only when hasWriter
	prevWriter  uint8 // pair mode only: the previous distinct writer
	hasWriter   bool
	hasPrev     bool
	readerCount uint8 // 2-bit saturating count of unique readers since last write
	writeRepeat uint8 // 2-bit saturating counter of producer-consumer rounds
	marked      bool
	// pairMode is the §5 extension: tolerate a stable *pair* of writers
	// instead of resetting on every writer change (4 more bits of
	// storage per entry in hardware). It survives Reset — the mode is a
	// configuration property, not per-line history.
	pairMode bool
	readers  msg.Vector
}

// Reset clears the detector (used when a directory-cache entry is
// reallocated to a different line; the extra bits are not written back to
// memory). The configured mode survives.
func (d *Detector) Reset() { *d = Detector{pairMode: d.pairMode} }

// SetPairMode enables the two-writer extension (§5 future work): a line
// alternating between two writers with intervening reads still counts as
// producer-consumer, and delegation follows the most recent writer.
func (d *Detector) SetPairMode(on bool) { d.pairMode = on }

// OnRead observes a read-type request (GetShared) from node n.
func (d *Detector) OnRead(n msg.NodeID) {
	if d.hasWriter && n == msg.NodeID(d.lastWriter) {
		// The producer re-reading its own line is not consumption.
		return
	}
	if !d.readers.Has(n) {
		d.readers = d.readers.Set(n)
		if d.readerCount < readerCountMax {
			d.readerCount++
		}
	}
}

// OnWrite observes a write-type request (GetExcl/Upgrade) from node n and
// reports whether this write causes the block to be marked
// producer-consumer (i.e. the write-repeat counter just saturated).
func (d *Detector) OnWrite(n msg.NodeID) (nowMarked bool) {
	known := d.hasWriter && n == msg.NodeID(d.lastWriter)
	if d.pairMode && !known {
		known = d.hasPrev && n == msg.NodeID(d.prevWriter)
	}
	if known && d.readerCount > 0 {
		if d.writeRepeat < writeRepeatMax {
			d.writeRepeat++
			if d.writeRepeat == writeRepeatMax && !d.marked {
				d.marked = true
				nowMarked = true
			}
		}
	} else if !known {
		// An unknown writer breaks the pattern.
		d.writeRepeat = 0
		d.marked = false
		d.hasPrev = false
	}
	if d.hasWriter && n != msg.NodeID(d.lastWriter) {
		d.prevWriter = d.lastWriter
		d.hasPrev = true
	}
	d.lastWriter = uint8(n)
	d.hasWriter = true
	d.readerCount = 0
	d.readers = msg.Vector{}
	return nowMarked
}

// IsProducerConsumer reports whether the block is currently marked.
func (d *Detector) IsProducerConsumer() bool { return d.marked }

// Producer returns the predicted producer (the last writer) and whether one
// has been observed.
func (d *Detector) Producer() (msg.NodeID, bool) { return msg.NodeID(d.lastWriter), d.hasWriter }

// ReaderCount returns the saturating unique-reader count since the last
// write (exported for the Table 3 measurement).
func (d *Detector) ReaderCount() int { return int(d.readerCount) }

// WriteRepeat returns the current write-repeat counter value (testing aid).
func (d *Detector) WriteRepeat() int { return int(d.writeRepeat) }
