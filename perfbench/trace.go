package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is the parent of a root span and
// what a nil tracer hands out.
type spanID int

const noSpan spanID = -1

type span struct {
	name       string
	parent     spanID
	start, end time.Time
}

// tracer keeps the spans of a traced run in memory. The benchmark records
// a span around each call it makes into a layer's public function; a nil
// *tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// open starts a span whose end is recorded later with close.
func (t *tracer) open(parent spanID, name string, start time.Time) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) close(id spanID, end time.Time) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(parent spanID, name string, start, end time.Time) spanID {
	id := t.open(parent, name, start)
	t.close(id, end)
	return id
}

// spanNode aggregates every span with the same path from the root.
type spanNode struct {
	name        string
	count       int
	total, self time.Duration
	children    map[string]*spanNode
}

// tree aggregates the spans by path. A span's self time is its duration
// minus the part of its interval that its children cover; children that
// ran in parallel (the bake-off's runner cells) are merged before
// subtracting, so self time is never negative.
func (t *tracer) tree() *spanNode {
	root := &spanNode{name: "spans", children: map[string]*spanNode{}}
	kids := make(map[spanID][]span)
	for _, s := range t.spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	nodes := make([]*spanNode, len(t.spans))
	for i, s := range t.spans {
		parent := root
		if s.parent != noSpan {
			parent = nodes[s.parent]
		}
		n := parent.children[s.name]
		if n == nil {
			n = &spanNode{name: s.name, children: map[string]*spanNode{}}
			parent.children[s.name] = n
		}
		nodes[i] = n
		d := s.end.Sub(s.start)
		n.count++
		n.total += d
		n.self += d - covered(kids[spanID(i)])
	}
	return root
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var sum time.Duration
	var end time.Time
	for _, s := range spans {
		start := s.start
		if start.Before(end) {
			start = end
		}
		if s.end.After(start) {
			sum += s.end.Sub(start)
			end = s.end
		}
	}
	return sum
}

// Tree printing limits, after votegral's metrics tree: how deep to
// descend and how many children to print under each node.
const (
	maxDepth    = 4
	maxChildren = 8
)

// printSpans prints the span tree, largest total first.
func printSpans(w io.Writer, n *spanNode, depth int) {
	if depth > maxDepth {
		return
	}
	if depth > 0 {
		fmt.Fprintf(w, "%s%-18s n=%-5d total %9.4fs  self %9.4fs\n",
			strings.Repeat("  ", depth), n.name, n.count, n.total.Seconds(), n.self.Seconds())
	} else {
		fmt.Fprintln(w, n.name)
	}
	kids := make([]*spanNode, 0, len(n.children))
	for _, c := range n.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].total > kids[j].total })
	for i, c := range kids {
		if i == maxChildren {
			fmt.Fprintf(w, "%s... %d more\n", strings.Repeat("  ", depth+1), len(kids)-i)
			break
		}
		printSpans(w, c, depth+1)
	}
}
