package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"freewayml/internal/datasets"
	"freewayml/internal/serve"
	"freewayml/internal/stream"
	"freewayml/internal/wire"
)

// Transports a workload can send its requests over.
const (
	// transportHTTPBinary POSTs one f64 wire frame per request over HTTP.
	transportHTTPBinary = "http-binary"
	// transportConn writes length-prefixed f64 frames on a persistent
	// connection to the server's binary listener.
	transportConn = "binary-conn"
	// transportJSON POSTs a JSON serve.ProcessRequest over HTTP.
	transportJSON = "json"
)

// workload is one traffic mix: which simulators feed which streams, how the
// requests are encoded and sent, and how the server is configured.
type workload struct {
	name     string
	datasets []string // simulator per stream, cycled over the streams
	streams  int
	batch    int
	// readsPerWrite is the number of label-less reads sent per labeled
	// batch. Reads carry the features of the batch whose labeled write
	// follows them, so a stream predicts each batch before it learns it and
	// the training plane still sees every batch of the drift schedule.
	readsPerWrite float64
	model         string
	dim, classes  int
	transport     string
	coalesce      bool
	tier          string // freeway-serve -kernel-tier; empty keeps its f64 default
	// workers > 1 puts freeway-router in front of that many workers.
	workers int
	// senders is the number of sender goroutines, each with its own
	// connection and a fixed share of the streams (the host has two CPUs;
	// more senders would only queue client-side).
	senders int
	// rate is the open-loop arrival rate in requests per second over all
	// senders; 0 runs a closed loop.
	rate float64
	// statsAt is the labeled-batch count per stream after which g_acc and
	// si are read, so both are computed over the same batches whatever the
	// throughput of the run.
	statsAt int
}

var workloads = []*workload{
	{
		name:          "drift-train",
		datasets:      []string{"Animals", "Flowers"},
		streams:       4,
		batch:         256,
		readsPerWrite: 1,
		model:         "mlp",
		dim:           64,
		classes:       10,
		transport:     transportHTTPBinary,
		// One sender: a labeled batch's GEMMs fan out over both CPUs, and a
		// second connection's fork-joins competing for them made the
		// latency medians depend on how the two interleaved (NOTES.md).
		senders: 1,
		statsAt: 200,
	},
	{
		name:          "read-mostly",
		datasets:      []string{"Animals", "Flowers"},
		streams:       8,
		batch:         64,
		readsPerWrite: 19,
		model:         "mlp",
		dim:           64,
		classes:       10,
		transport:     transportConn,
		coalesce:      true,
		senders:       2,
		statsAt:       80,
	},
	{
		name:          "small-json-router",
		datasets:      []string{"NSL-KDD"},
		streams:       16,
		batch:         32,
		readsPerWrite: 1,
		model:         "lr",
		dim:           12,
		classes:       5,
		transport:     transportJSON,
		workers:       2,
		senders:       2,
		rate:          250,
		statsAt:       100,
	},
}

// variants change one server or transport setting of a workload. They
// exist for the one-off re-measurement of older claims in NOTES.md; the
// benchmark's own runs use none.
var variants = map[string]func(w *workload){
	"unfused":     func(w *workload) { w.coalesce = false },
	"f32":         func(w *workload) { w.tier = "f32" },
	"int8-infer":  func(w *workload) { w.tier = "int8-infer" },
	"json":        func(w *workload) { w.transport = transportJSON },
	"http-binary": func(w *workload) { w.transport = transportHTTPBinary },
}

// findWorkload returns a copy of the named workload with the variant, if
// any, applied.
func findWorkload(name, variant string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			v := *w
			if variant != "" {
				apply, ok := variants[variant]
				if !ok {
					return nil, fmt.Errorf("unknown variant %q", variant)
				}
				apply(&v)
				v.name += "+" + variant
			}
			return &v, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func streamID(s int) string { return fmt.Sprintf("s%02d", s) }

// request is one HTTP call (or frame) of the workload.
type request struct {
	stream  int
	id      string
	batch   int  // index of the labeled batch this request belongs to
	labeled bool // a labeled write (process) or a label-less read (infer)
	x       [][]float64
	y       []int // nil on reads
}

// feed generates one stream's request sequence: the stream's simulator
// replayed pass after pass, pass k seeded with the stream seed plus k.
type feed struct {
	w      *workload
	stream int
	seed   int64
	pass   int
	src    stream.Source

	batch   int // labeled batches emitted so far
	cur     stream.Batch
	pending int // reads still to send before cur's labeled write
	have    bool
}

func newFeed(w *workload, s int, seed int64) *feed {
	return &feed{w: w, stream: s, seed: seed + int64(s)*1000}
}

// readsBefore is the number of reads that precede labeled batch i:
// floor((i+1)r) - floor(ir), so the read share is exactly r per write.
func (w *workload) readsBefore(i int) int {
	r := w.readsPerWrite
	return int(math.Floor(float64(i+1)*r)) - int(math.Floor(float64(i)*r))
}

func (f *feed) nextBatch() (stream.Batch, error) {
	for {
		if f.src == nil {
			name := f.w.datasets[f.stream%len(f.w.datasets)]
			src, err := datasets.Build(name, f.w.batch, f.seed+int64(f.pass))
			if err != nil {
				return stream.Batch{}, err
			}
			f.src = src
		}
		if b, ok := f.src.Next(); ok {
			return b, nil
		}
		f.src = nil
		f.pass++
	}
}

// next returns the stream's next request.
func (f *feed) next() (request, error) {
	if !f.have {
		b, err := f.nextBatch()
		if err != nil {
			return request{}, err
		}
		f.cur, f.have, f.pending = b, true, f.w.readsBefore(f.batch)
	}
	r := request{stream: f.stream, id: streamID(f.stream), batch: f.batch, x: f.cur.X}
	if f.pending > 0 {
		f.pending--
		return r, nil
	}
	r.labeled, r.y = true, f.cur.Y
	f.batch++
	f.have = false
	return r, nil
}

// path is the HTTP path a request goes to.
func (r request) path() string {
	if r.labeled {
		return "/v1/streams/" + r.id + "/process"
	}
	return "/v1/streams/" + r.id + "/infer"
}

// encode returns the request body in the workload's wire format. Frames
// sent on a persistent connection carry their length prefix and stream id;
// traceparent, when set, rides in the frame (binary) and is otherwise the
// caller's to put in a header.
func encode(w *workload, r request, traceparent string, dst []byte) ([]byte, error) {
	switch w.transport {
	case transportJSON:
		buf := bytes.NewBuffer(dst[:0])
		err := json.NewEncoder(buf).Encode(serve.ProcessRequest{X: r.x, Y: r.y})
		return buf.Bytes(), err
	case transportConn:
		return wire.AppendStreamFrameTrace(dst[:0], r.id, traceparent, wire.Float64, r.x, r.y)
	default:
		return wire.AppendFrameTrace(dst[:0], r.id, traceparent, wire.Float64, r.x, r.y)
	}
}

// senderStreams returns the streams sender i owns: a fixed partition, so
// each stream's requests go out in order on one connection.
func senderStreams(w *workload, i int) []int {
	var out []int
	for s := i; s < w.streams; s += w.senders {
		out = append(out, s)
	}
	return out
}

// schedule yields a sender's requests round-robin over its streams.
type schedule struct {
	feeds []*feed
	next  int
}

func newSchedule(w *workload, sender int, seed int64) *schedule {
	sc := &schedule{}
	for _, s := range senderStreams(w, sender) {
		sc.feeds = append(sc.feeds, newFeed(w, s, seed))
	}
	return sc
}

func (sc *schedule) pop() (request, error) {
	f := sc.feeds[sc.next]
	sc.next = (sc.next + 1) % len(sc.feeds)
	return f.next()
}
