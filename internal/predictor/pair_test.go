package predictor

import (
	"testing"

	"pccsim/internal/msg"
)

// Tests for the §5 two-writer extension (pair mode).

func TestPairModeAlternatingWritersMark(t *testing.T) {
	var d Detector
	d.SetPairMode(true)
	if !d.pairMode {
		t.Fatal("pair mode not set")
	}
	// Writers 0 and 1 alternate, consumer 2 reads between writes.
	marked := false
	for round := 0; round < 6; round++ {
		w := msg.NodeID(round % 2)
		if d.OnWrite(w) {
			marked = true
		}
		d.OnRead(2)
	}
	if !marked || !d.IsProducerConsumer() {
		t.Fatal("alternating writer pair never marked in pair mode")
	}
}

func TestClassicModeAlternatingWritersNeverMark(t *testing.T) {
	var d Detector // pair mode off
	for round := 0; round < 10; round++ {
		if d.OnWrite(msg.NodeID(round % 2)) {
			t.Fatal("classic detector marked an alternating-writer line")
		}
		d.OnRead(2)
	}
}

func TestPairModeThirdWriterResets(t *testing.T) {
	var d Detector
	d.SetPairMode(true)
	// A full alternation cycle is needed before the counter moves: the
	// second writer is only "known" once it is the recorded pair member.
	d.OnWrite(0)
	d.OnRead(2)
	d.OnWrite(1)
	d.OnRead(2)
	d.OnWrite(0) // 0 is the pair partner now: counts
	d.OnRead(2)
	if d.WriteRepeat() == 0 {
		t.Fatal("pair not being tracked")
	}
	d.OnWrite(5) // a third writer breaks the pair
	if d.WriteRepeat() != 0 || d.IsProducerConsumer() {
		t.Fatal("third writer did not reset the pair pattern")
	}
}

func TestPairModeSingleWriterStillWorks(t *testing.T) {
	var d Detector
	d.SetPairMode(true)
	for round := 0; round < 4; round++ {
		d.OnWrite(3)
		d.OnRead(1)
	}
	if !d.IsProducerConsumer() {
		t.Fatal("pair mode broke single-producer detection")
	}
	if p, ok := d.Producer(); !ok || p != 3 {
		t.Fatalf("producer = %d,%v", p, ok)
	}
}

func TestPairModeSurvivesReset(t *testing.T) {
	var d Detector
	d.SetPairMode(true)
	d.OnWrite(0)
	d.Reset()
	if !d.pairMode {
		t.Fatal("Reset cleared the configured mode")
	}
	if d.WriteRepeat() != 0 {
		t.Fatal("Reset kept history")
	}
}

func TestPairModeProducerIsMostRecentWriter(t *testing.T) {
	var d Detector
	d.SetPairMode(true)
	d.OnWrite(0)
	d.OnRead(2)
	d.OnWrite(1)
	p, ok := d.Producer()
	if !ok || p != 1 {
		t.Fatalf("producer = %d, want the most recent writer 1", p)
	}
}
