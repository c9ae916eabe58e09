package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"freewayml/internal/coalesce"
	"freewayml/internal/dist"
	"freewayml/internal/linalg"
	"freewayml/internal/obs"
	"freewayml/internal/serve"
	"freewayml/internal/strategy"
	"freewayml/internal/wire"
)

// timeNS times fn directly: the median over five rounds of the mean
// nanoseconds per call, each round long enough (about 2 ms) that the clock
// resolution does not matter.
func timeNS(fn func()) float64 {
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	n := 1
	if one < 2*time.Millisecond {
		n = int(2*time.Millisecond/(one+1)) + 1
	}
	rounds := make([]float64, 5)
	for r := range rounds {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(t)) / float64(n)
	}
	return median(rounds)
}

// kernelCall is one linalg kernel shape the model issues, with how often:
// perWrite calls per labeled batch (two ensemble forwards to predict plus
// one forward and backward step of the short model) and perRead calls per
// label-less read (two ensemble forwards). Window-close long-model updates
// and the CEC and knowledge paths add calls not listed.
type kernelCall struct {
	op                string // gemm, gemm_ta, gemm_tb, transpose
	m, k, n           int    // C is m×n, the shared dimension k (transpose: m×n source)
	add               bool   // accumulating variant: C is read as well as written
	perWrite, perRead float64
}

// flops is the multiply-add count of one call, 2mkn (0 for a transpose).
func (kc kernelCall) flops() float64 {
	if kc.op == "transpose" {
		return 0
	}
	return 2 * float64(kc.m*kc.k*kc.n)
}

// bytes is the computed traffic of one call from tensor sizes: A and B read
// once, C written once (and read too for an accumulating call); a transpose
// reads and writes its m×n elements. 8-byte float64 elements.
func (kc kernelCall) bytes() float64 {
	if kc.op == "transpose" {
		return 16 * float64(kc.m*kc.n)
	}
	c := float64(kc.m * kc.n)
	if kc.add {
		c *= 2
	}
	return 8 * (float64(kc.m*kc.k+kc.k*kc.n) + c)
}

// kernelCalls lists the kernel calls of one batch of rows for the
// workload's model, following internal/nn.Dense: a layer with more inputs
// than outputs runs in its transposed-weight (dot) form.
func kernelCalls(w *workload) []kernelCall {
	layers := [][2]int{{w.dim, w.classes}}
	if w.model == "mlp" {
		layers = [][2]int{{w.dim, 64}, {64, w.classes}}
	}
	rows := w.batch
	var out []kernelCall
	add := func(kc kernelCall, fwd, bwd bool) {
		if fwd {
			kc.perWrite, kc.perRead = 3, 2
		}
		if bwd {
			kc.perWrite, kc.perRead = 1, 0
		}
		out = append(out, kc)
	}
	for _, l := range layers {
		in, o := l[0], l[1]
		if in > o {
			add(kernelCall{op: "transpose", m: in, n: o}, true, false)
			add(kernelCall{op: "gemm_tb", m: rows, k: in, n: o}, true, false)
			add(kernelCall{op: "transpose", m: rows, n: in}, false, true)
			add(kernelCall{op: "transpose", m: rows, n: o}, false, true)
			add(kernelCall{op: "gemm_tb", m: in, k: rows, n: o, add: true}, false, true)
			add(kernelCall{op: "gemm", m: rows, k: o, n: in}, false, true)
		} else {
			add(kernelCall{op: "gemm", m: rows, k: in, n: o, add: true}, true, false)
			add(kernelCall{op: "gemm_ta", m: in, k: rows, n: o, add: true}, false, true)
			add(kernelCall{op: "gemm_tb", m: rows, k: o, n: in}, false, true)
		}
	}
	return out
}

func randTensor(rng *rand.Rand, rows, cols int) *linalg.Tensor {
	t := linalg.NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// timeKernel times one call of kc by calling linalg directly.
func timeKernel(kc kernelCall) float64 {
	rng := rand.New(rand.NewSource(1))
	m, k, n := kc.m, kc.k, kc.n
	switch kc.op {
	case "gemm":
		a, b, c := randTensor(rng, m, k), randTensor(rng, k, n), linalg.NewTensor(m, n)
		return timeNS(func() { linalg.Gemm(c, a, b) })
	case "gemm_ta":
		a, b, c := randTensor(rng, k, m), randTensor(rng, k, n), linalg.NewTensor(m, n)
		return timeNS(func() { linalg.GemmTA(c, a, b) })
	case "gemm_tb":
		a, b, c := randTensor(rng, m, k), randTensor(rng, n, k), linalg.NewTensor(m, n)
		return timeNS(func() { linalg.GemmTB(c, a, b) })
	default:
		src, dst := randTensor(rng, m, n), linalg.NewTensor(n, m)
		return timeNS(func() { linalg.TransposeInto(dst, src) })
	}
}

// kernelRow is a kernelCall with its measured time.
type kernelRow struct {
	kernelCall
	ns    float64
	calls float64 // per labeled batch plus its reads
}

// probes are the direct calls into single layers on the workload's inputs.
type probes struct {
	decodeNSPerRow, jsonDecodeNSPerRow float64
	ensureNS, snapshotLoadNS           float64
	inferMSPerCall, matchNS            float64
	knowledgeEntries                   int
	coalesceWaitMS                     []float64 // only for servers that do not coalesce
	kernels                            []kernelRow
}

func layerProbes(w *workload, seed int64, rp *replayResult) (probes, error) {
	var p probes
	r, err := nextLabeled(newFeed(w, 0, seed))
	if err != nil {
		return p, err
	}
	rows := float64(len(r.x))

	frameBuf, err := wire.AppendFrame(nil, r.id, wire.Float64, r.x, r.y)
	if err != nil {
		return p, err
	}
	frame := &wire.Frame{}
	p.decodeNSPerRow = timeNS(func() { _ = frame.DecodeInto(frameBuf) }) / rows
	jsonBuf, err := json.Marshal(serve.ProcessRequest{X: r.x, Y: r.y})
	if err != nil {
		return p, err
	}
	p.jsonDecodeNSPerRow = timeNS(func() {
		var req serve.ProcessRequest
		dec := json.NewDecoder(bytes.NewReader(jsonBuf))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
	}) / rows

	sess, err := rp.mgr.Ensure(r.id)
	if err != nil {
		return p, err
	}
	p.ensureNS = timeNS(func() { _, _ = rp.mgr.Ensure(r.id) })
	var snap *strategy.Snapshot
	p.snapshotLoadNS = timeNS(func() { snap = sess.ModelSnapshot() })
	groups := [][][]float64{r.x}
	p.inferMSPerCall = timeNS(func() { _, _ = snap.InferFused(groups) }) / 1e6

	for s := 0; s < w.streams; s++ {
		if st, ok := rp.mgr.Get(streamID(s)); ok {
			p.knowledgeEntries += st.Snapshot().KnowledgeEntries
		}
	}
	if snap.Knowledge != nil && snap.Proj != nil {
		mean := make(linalg.Vector, len(r.x[0]))
		for _, row := range r.x {
			for j, v := range row {
				mean[j] += v / rows
			}
		}
		q, err := snap.Proj.ProjectMean(mean)
		if err != nil {
			return p, err
		}
		p.matchNS = timeNS(func() { _, _, _, _ = snap.Knowledge.Match(q) })
	}

	if !w.coalesce {
		if p.coalesceWaitMS, err = coalesceProbe(w, seed, rp); err != nil {
			return p, err
		}
	}
	for _, kc := range kernelCalls(w) {
		p.kernels = append(p.kernels, kernelRow{kernelCall: kc, ns: timeKernel(kc),
			calls: kc.perWrite + w.readsPerWrite*kc.perRead})
	}
	return p, nil
}

// coalesceProbe measures the infer coalescer for a workload whose server
// does not coalesce: two goroutines submit the workload's reads to an
// in-process coalescer whose runner is the same timed read path the replay
// uses, and each submit's wait is its duration minus the runner's.
func coalesceProbe(w *workload, seed int64, rp *replayResult) ([]float64, error) {
	c, err := coalesce.New(coalesce.Config{Run: func(b coalesce.Batch) (any, error) {
		return timedInferGroup(rp.mgr, b)
	}})
	if err != nil {
		return nil, err
	}
	const perSender, probeSenders = 200, 2
	pw := *w // the probe always splits the streams over two submitters
	pw.senders = probeSenders
	waits := make([][]float64, probeSenders)
	errs := make([]error, probeSenders)
	var wg sync.WaitGroup
	for i := 0; i < probeSenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := newSchedule(&pw, i, seed)
			for n := 0; n < perSender; n++ {
				r, err := sc.pop()
				if err != nil {
					errs[i] = err
					return
				}
				t0 := time.Now()
				sub, err := c.SubmitInfer(context.Background(), r.id, "", r.x)
				if err != nil {
					errs[i] = err
					return
				}
				inf := sub.Out.([]*inferred)[sub.Member]
				waits[i] = append(waits[i], msSince(t0)-inf.runMS)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for i := range waits {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, waits[i]...)
	}
	return all, nil
}

// probeRouter measures the router hop for a workload that runs without
// freeway-router: an in-process dist.Router forwards label-less reads of
// the workload's batches to the real worker at addr. Reads leave learner
// state unchanged, so the probe runs after the traced requests on the same
// servers.
func probeRouter(addr string, w *workload, seed int64) ([]hopSample, error) {
	rt, err := dist.NewRouter(dist.Config{Workers: []string{addr}})
	if err != nil {
		return nil, err
	}
	rt.Start()
	defer rt.Close()
	ctype := serve.BinaryContentType
	if w.transport == transportJSON {
		ctype = "application/json"
	}
	f := newFeed(w, 0, seed)
	var out []hopSample
	for n := 0; n < 200; n++ {
		r, err := f.next()
		if err != nil {
			return nil, err
		}
		var body []byte
		if w.transport == transportJSON {
			body, err = json.Marshal(serve.ProcessRequest{X: r.x})
		} else {
			body, err = wire.AppendFrame(nil, r.id, wire.Float64, r.x, nil)
		}
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+r.id+"/infer", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("router probe: status %d: %s", rec.Code, rec.Body.String())
		}
		router, _ := strconv.ParseFloat(rec.Header().Get(obs.RouterMicrosHeader), 64)
		worker, _ := strconv.ParseFloat(rec.Header().Get(obs.WorkerMicrosHeader), 64)
		attempts, _ := strconv.Atoi(rec.Header().Get(obs.AttemptsHeader))
		out = append(out, hopSample{hopMS: (router - worker) / 1e3, attempts: attempts})
	}
	return out, nil
}

// layerReport prints the traced run's breakdown and returns the per-layer
// metrics.
func layerReport(out io.Writer, w *workload, ref, ss []*sender, rp *replayResult, srv serverCounters,
	hops []hopSample, p probes) (report, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Request trace table: self time per span, per request, and its share.
	tt := rp.table
	if tt.requests == 0 {
		return report{}, fmt.Errorf("no traced request has a worker span")
	}
	perReq := func(v float64) float64 { return v / float64(tt.requests) }
	var sum float64
	fmt.Fprintf(out, "trace requests=%d (without worker span: %d) total=%.4g ms/request\n",
		tt.requests, rp.missing, perReq(tt.totalMS))
	for _, name := range tt.rows() {
		sum += tt.self[name]
		fmt.Fprintf(out, "trace self %-24s %10.4g ms/request %7.2f%%\n", name, perReq(tt.self[name]), 100*tt.self[name]/tt.totalMS)
	}
	fmt.Fprintf(out, "trace self sum %.6g ms = total %.6g ms\n", sum, tt.totalMS)
	put("trace.total_ms", perReq(tt.totalMS), "ms")
	for _, name := range traceSpans {
		put("trace.share."+name, tt.self[name]/tt.totalMS, "ratio")
	}
	layers := map[string]float64{}
	for name, v := range tt.self {
		layer := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			layer = name[:i]
		}
		layers[layer] += v
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	for _, l := range names {
		fmt.Fprintf(out, "layer %-14s %7.2f%% of traced request time\n", l, 100*layers[l]/tt.totalMS)
	}

	// serve
	handler := summarize(rp.handlerMS, 99)
	put("serve.handler_ms_p50", handler.p50, "ms")
	put("serve.handler_ms_p99", handler.tailMS, "ms")
	put("serve.transport_ms_p50", median(rp.transport), "ms")
	put("serve.http_rejects", srv.httpRejects, "count")
	fmt.Fprintf(out, "serve handler n=%d p50=%.4g ms p%.4g=%.4g ms\n", handler.n, handler.p50, handler.pct, handler.tailMS)

	// wire
	var reqBytes []float64
	for _, s := range ss {
		for _, o := range s.outs {
			reqBytes = append(reqBytes, float64(o.bytes))
		}
	}
	put("wire.decode_ns_per_row", p.decodeNSPerRow, "ns")
	put("wire.json_decode_ns_per_row", p.jsonDecodeNSPerRow, "ns")
	put("wire.encode_ns_per_req", median(rp.encodeMS)*1e6, "ns")
	put("wire.request_bytes", mean(reqBytes), "bytes")

	// dist
	hopMS := make([]float64, len(hops))
	var attempts float64
	for i, h := range hops {
		hopMS[i] = h.hopMS
		attempts += float64(h.attempts)
	}
	hop := summarize(hopMS, 99)
	put("dist.hop_ms_p50", hop.p50, "ms")
	put("dist.hop_ms_p99", hop.tailMS, "ms")
	put("dist.attempts_per_request", attempts/float64(len(hops)), "count")
	src := "freeway-router headers"
	if w.workers <= 1 {
		src = "in-process dist.Router probe (this workload has no router)"
	}
	fmt.Fprintf(out, "dist hop n=%d p50=%.4g ms p%.4g=%.4g ms from %s\n", hop.n, hop.p50, hop.pct, hop.tailMS, src)

	// coalesce
	waits, wsrc := rp.waitMS, "the replay's coalescer"
	if !w.coalesce {
		waits, wsrc = p.coalesceWaitMS, "an in-process coalescer probe (this server does not coalesce)"
	}
	put("coalesce.wait_ms_p50", median(waits), "ms")
	put("coalesce.members_per_pass", srv.coalMembers, "count")
	put("coalesce.rows_per_pass", srv.coalRows, "count")
	fmt.Fprintf(out, "coalesce wait p50 from %s; server infer passes=%g members/pass=%.4g rows/pass=%.4g\n",
		wsrc, srv.coalPasses, srv.coalMembers, srv.coalRows)

	// session
	put("session.ensure_ns", p.ensureNS, "ns")
	put("session.resident", srv.resident, "count")
	put("session.evictions", srv.evictions, "count")

	// core
	proc := summarize(rp.processMS, 99)
	put("core.process_ms_p50", proc.p50, "ms")
	put("core.process_ms_p99", proc.tailMS, "ms")
	var procTotal, stageTotal float64
	for _, v := range rp.processMS {
		procTotal += v
	}
	for _, st := range strategy.StageNames {
		stageTotal += rp.stageMS[st]
		put("core.stage."+st+"_share", rp.stageMS[st]/procTotal, "ratio")
		fmt.Fprintf(out, "core stage %-17s total=%10.4g ms share=%6.2f%% batches=%d\n",
			st, rp.stageMS[st], 100*rp.stageMS[st]/procTotal, rp.stageRuns[st])
	}
	put("core.unstaged_ms", procTotal-stageTotal, "ms")
	fmt.Fprintf(out, "core process n=%d p50=%.4g ms p%.4g=%.4g ms total=%.4g ms unstaged=%.4g ms\n",
		proc.n, proc.p50, proc.pct, proc.tailMS, procTotal, procTotal-stageTotal)
	for _, s := range []string{"warmup", "ensemble", "cec", "knowledge"} {
		put("core.strategy."+s, float64(rp.strategies[s]), "count")
	}
	for _, pt := range []string{"A1", "A2", "B", "C"} {
		put("core.pattern."+pt, float64(rp.patterns[pt]), "count")
	}
	fmt.Fprintf(out, "core strategies %v patterns %v\n", rp.strategies, rp.patterns)

	// strategy
	var ages []float64
	for _, s := range ss {
		for _, o := range s.outs {
			if !o.labeled && o.ok {
				ages = append(ages, o.ans.snapshotAgeMS)
			}
		}
	}
	put("strategy.snapshot_load_ns", p.snapshotLoadNS, "ns")
	put("strategy.infer_ms_per_call", p.inferMSPerCall, "ms")
	put("strategy.snapshot_age_ms_p50", median(ages), "ms")

	// knowledge
	hit := 0.0
	if srv.knowledgeAll > 0 {
		hit = srv.knowledgeHit / srv.knowledgeAll
	}
	put("knowledge.hit_ratio", hit, "ratio")
	put("knowledge.match_ns", p.matchNS, "ns")
	put("knowledge.entries", float64(p.knowledgeEntries), "count")
	fmt.Fprintf(out, "knowledge lookups=%g hits=%g entries=%d\n", srv.knowledgeAll, srv.knowledgeHit, p.knowledgeEntries)

	// linalg
	totals := map[string]float64{}
	var flops, bytesMoved float64
	fmt.Fprintln(out, "kernel rows (calls per labeled batch plus its reads; bytes computed from tensor sizes, not measured):")
	for _, k := range p.kernels {
		totals[k.op] += k.calls * k.ns
		flops += k.calls * k.flops()
		bytesMoved += k.calls * k.bytes()
		fmt.Fprintf(out, "kernel %-9s m=%-4d k=%-4d n=%-4d add=%-5v calls=%-5.3g flops/call=%-9.4g bytes/call=%-9.4g ns/call=%.4g\n",
			k.op, k.m, k.k, k.n, k.add, k.calls, k.flops(), k.bytes(), k.ns)
	}
	put("linalg.gemm_ns", totals["gemm"], "ns")
	put("linalg.gemm_ta_ns", totals["gemm_ta"], "ns")
	put("linalg.gemm_tb_ns", totals["gemm_tb"], "ns")
	put("linalg.transpose_ns", totals["transpose"], "ns")
	put("linalg.flops_per_batch", flops, "count")
	put("linalg.bytes_per_batch", bytesMoved, "bytes")

	// tracing overhead: the traced run's round trips against the untraced
	// reference run's, over the same requests.
	put("bench.tracing_overhead_frac", median(roundTrips(ss))/median(roundTrips(ref))-1, "ratio")

	c := tally(append(append([]*sender(nil), ref...), ss...))
	failed := c.failed + c.refused + rp.mismatched
	fmt.Fprintf(out, "requests sent=%d succeeded=%d failed=%d refused=%d replay_checked=%d replay_mismatched=%d\n",
		c.sent, c.succeeded, c.failed, c.refused, rp.checked, rp.mismatched)
	return report{Correct: failed == 0, Attempted: c.sent, Failed: failed, Metrics: m}, nil
}

func roundTrips(ss []*sender) []float64 {
	var out []float64
	for _, s := range ss {
		for _, o := range s.outs {
			if !o.setup && o.ok {
				out = append(out, o.rtMS)
			}
		}
	}
	return out
}
