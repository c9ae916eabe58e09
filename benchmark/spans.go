package main

import "sort"

// span is one timed call in a request's trace. Spans are recorded by the
// benchmark around calls into each layer's public entry points, or derived
// from the per-hop timings the servers report.
type span struct {
	name string
	ms   float64
	kids []*span
}

// child appends a child span and returns it.
func (s *span) child(name string, ms float64) *span {
	c := &span{name: name, ms: ms}
	s.kids = append(s.kids, c)
	return c
}

// self is the span's time not covered by its children. It is negative when
// children measured separately (an in-process replay of the server's work)
// took longer than the span that contains them; the sum over a tree still
// equals the root's time.
func (s *span) self() float64 {
	v := s.ms
	for _, k := range s.kids {
		v -= k.ms
	}
	return v
}

// selfTimes adds every span's self time into acc, keyed by span name; the
// root's self time is the request's unattributed time.
func (s *span) selfTimes(acc map[string]float64, root bool) {
	name := s.name
	if root {
		name = unattributed
	}
	acc[name] += s.self()
	for _, k := range s.kids {
		k.selfTimes(acc, false)
	}
}

// unattributed names the root's self time: time inside the request that no
// layer span covers.
const unattributed = "unattributed"

// traceTable sums self times over many request traces.
type traceTable struct {
	requests int
	totalMS  float64
	self     map[string]float64
}

func newTraceTable() *traceTable { return &traceTable{self: map[string]float64{}} }

func (t *traceTable) add(root *span) {
	t.requests++
	t.totalMS += root.ms
	root.selfTimes(t.self, true)
}

// rows returns the span names ordered by descending self time.
func (t *traceTable) rows() []string {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	return names
}
