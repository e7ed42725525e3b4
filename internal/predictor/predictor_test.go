package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"pccsim/internal/msg"
)

// TestDetectorSize pins the directory cache's payload at 40 bytes: every
// directory-cache way of every node holds one.
func TestDetectorSize(t *testing.T) {
	if n := unsafe.Sizeof(Detector{}); n > 40 {
		t.Fatalf("Detector is %d bytes, want <= 40", n)
	}
}

// The canonical pattern of equation (1): (Wi (Rj)+)* marks the block after
// the write-repeat counter saturates at 3.
func TestCanonicalPatternMarks(t *testing.T) {
	var d Detector
	p := msg.NodeID(0)
	marksAt := -1
	for round := 0; round < 5; round++ {
		if d.OnWrite(p) && marksAt < 0 {
			marksAt = round
		}
		d.OnRead(1)
		d.OnRead(2)
	}
	if marksAt != 3 {
		t.Fatalf("marked at round %d, want 3 (after 3 repeat increments)", marksAt)
	}
	if !d.IsProducerConsumer() {
		t.Fatal("detector not marked after saturation")
	}
}

func TestWriteWithoutInterveningReadDoesNotCount(t *testing.T) {
	var d Detector
	for i := 0; i < 10; i++ {
		if d.OnWrite(0) {
			t.Fatal("write burst with no readers marked producer-consumer")
		}
	}
	if d.WriteRepeat() != 0 {
		t.Fatalf("WriteRepeat = %d, want 0", d.WriteRepeat())
	}
}

func TestDifferentWriterResetsPattern(t *testing.T) {
	var d Detector
	d.OnWrite(0)
	d.OnRead(1)
	d.OnWrite(0) // first repeat: W0 R1 W0
	d.OnRead(1)
	if d.WriteRepeat() != 1 {
		t.Fatalf("WriteRepeat = %d, want 1", d.WriteRepeat())
	}
	d.OnWrite(5) // migratory / multi-writer: reset
	if d.WriteRepeat() != 0 {
		t.Fatalf("WriteRepeat after foreign write = %d, want 0", d.WriteRepeat())
	}
	if d.IsProducerConsumer() {
		t.Fatal("marked despite writer change")
	}
}

func TestProducerReadingOwnDataIgnored(t *testing.T) {
	var d Detector
	d.OnWrite(3)
	d.OnRead(3) // producer re-reads its own data
	if d.OnWrite(3) {
		t.Fatal("marked")
	}
	if d.WriteRepeat() != 0 {
		t.Fatalf("producer self-read counted as consumption: repeat=%d", d.WriteRepeat())
	}
}

func TestReaderCountSaturatesAndCountsUnique(t *testing.T) {
	var d Detector
	d.OnWrite(0)
	d.OnRead(1)
	d.OnRead(1) // duplicate: not counted again
	if d.ReaderCount() != 1 {
		t.Fatalf("ReaderCount = %d, want 1", d.ReaderCount())
	}
	d.OnRead(2)
	d.OnRead(3)
	d.OnRead(4)
	d.OnRead(5)
	if d.ReaderCount() != 3 {
		t.Fatalf("ReaderCount = %d, want saturation at 3", d.ReaderCount())
	}
}

func TestReset(t *testing.T) {
	var d Detector
	d.OnWrite(0)
	d.OnRead(1)
	d.OnWrite(0)
	d.Reset()
	if d.WriteRepeat() != 0 || d.ReaderCount() != 0 || d.IsProducerConsumer() {
		t.Fatal("Reset did not clear state")
	}
	if _, ok := d.Producer(); ok {
		t.Fatal("Reset kept producer")
	}
}

func TestProducer(t *testing.T) {
	var d Detector
	if _, ok := d.Producer(); ok {
		t.Fatal("fresh detector reports a producer")
	}
	d.OnWrite(7)
	p, ok := d.Producer()
	if !ok || p != 7 {
		t.Fatalf("Producer = %d,%v want 7,true", p, ok)
	}
}

func TestMigratorySharingNeverMarks(t *testing.T) {
	// Migratory: each node reads then writes in turn. The writer always
	// changes, so the pattern must never be marked (the paper's detector
	// deliberately targets only producer-consumer sharing).
	var d Detector
	for round := 0; round < 20; round++ {
		n := msg.NodeID(round % 4)
		d.OnRead(n)
		if d.OnWrite(n) {
			t.Fatal("migratory pattern was marked producer-consumer")
		}
	}
}

// Property: marking requires at least 3 (Wp, R!=p) rounds by a single
// producer; random streams that never repeat a writer never mark.
func TestPropertyNoMarkWithoutRepeat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Detector
		prev := msg.NodeID(-1)
		for i := 0; i < 200; i++ {
			var n msg.NodeID
			for {
				n = msg.NodeID(rng.Intn(8))
				if n != prev {
					break
				}
			}
			if rng.Intn(2) == 0 {
				d.OnRead(n)
			} else {
				if d.OnWrite(n) {
					return false // writer always changes: must never mark
				}
				prev = n
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the canonical pattern always marks after exactly 3 rounds
// regardless of which nodes consume.
func TestPropertyCanonicalAlwaysMarks(t *testing.T) {
	f := func(seed int64, producer uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := msg.NodeID(producer % 16)
		var d Detector
		for round := 0; round < 4; round++ {
			marked := d.OnWrite(p)
			if (round == 3) != marked {
				return false
			}
			consumers := rng.Intn(3) + 1
			for c := 0; c < consumers; c++ {
				n := msg.NodeID(rng.Intn(16))
				if n == p {
					n = (n + 1) % 16
				}
				d.OnRead(n)
			}
		}
		return d.IsProducerConsumer()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
