package main

import (
	"math"
	"testing"
)

// Self times, with the root's own time as the unattributed row, add up to
// the traced total per request, also when a replayed child outlasts the
// span that contains it.
func TestSelfTimesAddUpToTotal(t *testing.T) {
	tt := newTraceTable()
	for i := 0; i < 3; i++ {
		root := &span{name: "request", ms: 10 + float64(i)}
		root.child("client.encode", 0.2)
		http := root.child("serve.transport", 9)
		hop := http.child("dist.hop", 7)
		hop.child("wire.decode", 0.3)
		h := hop.child("serve.handler", 5)
		p := h.child("session.process", 5.5) // replayed slower than the server
		p.child("core.predict", 2)
		p.child("core.short_update", 3)
		hop.child("wire.encode", 0.1)
		tt.add(root)
	}
	var sum float64
	for _, v := range tt.self {
		sum += v
	}
	if math.Abs(sum-tt.totalMS) > 1e-9 {
		t.Fatalf("self times sum to %v ms, traced total is %v ms", sum, tt.totalMS)
	}
	if got := tt.self[unattributed]; math.Abs(got-(0.8+1.8+2.8)) > 1e-9 {
		t.Errorf("unattributed = %v, want the roots' own time 5.4", got)
	}
	if got := tt.self["serve.handler"]; math.Abs(got-3*(-0.5)) > 1e-9 {
		t.Errorf("serve.handler self = %v, want -1.5", got)
	}
	if len(tt.rows()) != len(tt.self) {
		t.Errorf("rows() lists %d of %d spans", len(tt.rows()), len(tt.self))
	}
}
