package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"freewayml/internal/coalesce"
	"freewayml/internal/core"
	"freewayml/internal/obs"
	"freewayml/internal/serve"
	"freewayml/internal/session"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
	"freewayml/internal/wire"
)

// traceSpans is every span name a request trace can hold, so each traced
// run reports the same rows whichever layers its workload crosses.
var traceSpans = append([]string{
	unattributed, "client.encode", "serve.transport", "dist.hop", "serve.handler",
	"wire.decode", "coalesce.wait", "coalesce.run", "session.process",
}, append(stageSpans(), "session.ensure", "strategy.snapshot_load", "strategy.infer_fused", "wire.encode")...)

func stageSpans() []string {
	out := make([]string, len(strategy.StageNames))
	for i, s := range strategy.StageNames {
		out[i] = "core." + s
	}
	return out
}

// traced runs the workload twice on fresh servers with the same inputs:
// once with tracing off (the reference) and once traced, where every
// request carries its own trace id, the router reports per-hop times, and
// the workers' spans are collected. It then replays the traced requests
// in-process through the layers' public entry points, timing each call, so
// each request's round trip breaks down into per-layer self times.
func traced(out io.Writer, bin string, w *workload, seed int64, seconds float64) (report, error) {
	// Reference: the same load with tracing off, half the run length.
	c, ss, _, err := bootAndAnswer(bin, w, seed, false)
	if err != nil {
		return report{}, err
	}
	_, err = drive(ss, w, seconds/2, nil)
	closeAll(c, ss)
	if err != nil {
		return report{}, err
	}
	ref := ss
	limits := make([]int, len(ref))
	for i, s := range ref {
		for _, o := range s.outs {
			if !o.setup {
				limits[i]++
			}
		}
	}

	// Traced: exactly the same requests per sender.
	c, ss, _, err = bootAndAnswer(bin, w, seed, true)
	if err != nil {
		return report{}, err
	}
	poll := startSpanPoller(c)
	_, err = drive(ss, w, seconds, limits)
	workerMicros := poll.stop()
	var srv serverCounters
	var hops []hopSample
	if err == nil {
		srv, err = readServerCounters(c)
	}
	if err == nil && w.workers <= 1 {
		hops, err = probeRouter(c.workerAddrs[0], w, seed)
	}
	closeAll(c, ss)
	if err != nil {
		return report{}, err
	}

	rp, err := replayTraced(w, seed, ss, workerMicros)
	if err != nil {
		return report{}, err
	}
	defer rp.mgr.Close()
	for _, s := range ss {
		for _, o := range s.outs {
			if o.ans.routerMicros > 0 {
				hops = append(hops, hopSample{hopMS: (o.ans.routerMicros - workerMicros[o.traceID]) / 1e3, attempts: o.ans.attempts})
			}
		}
	}
	probes, err := layerProbes(w, seed, rp)
	if err != nil {
		return report{}, err
	}
	return layerReport(out, w, ref, ss, rp, srv, hops, probes)
}

// spanPoller collects the workers' spans while the traced run goes on: a
// worker keeps only its newest spans, so they are read every pollEvery.
type spanPoller struct {
	c       *cluster
	client  *http.Client
	stopCh  chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	byTrace map[string]float64 // trace id -> worker handler micros
}

const pollEvery = 200 * time.Millisecond

func startSpanPoller(c *cluster) *spanPoller {
	p := &spanPoller{
		c: c, client: &http.Client{Timeout: 10 * time.Second},
		stopCh: make(chan struct{}), done: make(chan struct{}),
		byTrace: map[string]float64{},
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				p.pollOnce()
				return
			case <-t.C:
				p.pollOnce()
			}
		}
	}()
	return p
}

func (p *spanPoller) pollOnce() {
	for _, addr := range p.c.workerAddrs {
		var spans []obs.Span
		if err := getJSON(p.client, "http://"+addr+"/v1/spans?n=1024", &spans); err != nil {
			continue // a missed poll only leaves some requests without a handler time
		}
		p.mu.Lock()
		for _, s := range spans {
			if s.Name == "worker.process" || s.Name == "worker.infer" {
				p.byTrace[s.TraceID] = s.DurationMicros
			}
		}
		p.mu.Unlock()
	}
}

// stop ends the poller after a last poll and returns what it collected.
func (p *spanPoller) stop() map[string]float64 {
	close(p.stopCh)
	<-p.done
	p.client.CloseIdleConnections()
	return p.byTrace
}

// serverCounters are read from the servers after the traced run.
type serverCounters struct {
	httpRejects  float64
	resident     float64
	evictions    float64
	coalMembers  float64 // mean members per infer-coalescer pass (0 when off)
	coalRows     float64 // mean rows per infer-coalescer pass
	coalPasses   float64
	knowledgeHit float64
	knowledgeAll float64
}

func readServerCounters(c *cluster) (serverCounters, error) {
	var sc serverCounters
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	var mSum, mCount, rSum, rCount float64
	for _, addr := range c.workerAddrs {
		var st serve.StatsResponse
		if err := getJSON(client, "http://"+addr+"/v1/stats", &st); err != nil {
			return sc, err
		}
		sc.httpRejects += float64(st.HTTPRejects)
		series, err := scrape(client, "http://"+addr+"/v1/metrics")
		if err != nil {
			return sc, err
		}
		sc.resident += series.sum("freeway_sessions_active", "")
		sc.evictions += series.sum("freeway_sessions_evicted_total", "")
		mSum += series.sum("freeway_infer_coalesce_members_sum", "")
		mCount += series.sum("freeway_infer_coalesce_members_count", "")
		rSum += series.sum("freeway_infer_coalesce_rows_sum", "")
		rCount += series.sum("freeway_infer_coalesce_rows_count", "")
		sc.knowledgeHit += series.sum("freeway_knowledge_lookups_total", `result="hit"`)
		sc.knowledgeAll += series.sum("freeway_knowledge_lookups_total", "")
	}
	sc.coalPasses = mCount
	if mCount > 0 {
		sc.coalMembers = mSum / mCount
	}
	if rCount > 0 {
		sc.coalRows = rSum / rCount
	}
	return sc, nil
}

// exposition is a scraped Prometheus text exposition: series line -> value.
type exposition map[string]float64

func scrape(client *http.Client, url string) (exposition, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	ex := exposition{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			ex[line[:i]] = v
		}
	}
	return ex, nil
}

// sum adds every series of the metric name whose labels contain sel.
func (ex exposition) sum(name, sel string) float64 {
	var s float64
	for series, v := range ex {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, sel) {
			s += v
		}
	}
	return s
}

// hopSample is one router hop: router time minus worker time.
type hopSample struct {
	hopMS    float64
	attempts int
}

// replayResult is the in-process traced replay of the traced requests.
type replayResult struct {
	table      *traceTable
	mgr        *session.Manager
	processMS  []float64 // session.Manager.ProcessBatch per labeled batch
	stageMS    map[string]float64
	stageRuns  map[string]int
	strategies map[string]int
	patterns   map[string]int
	encodeMS   []float64
	waitMS     []float64 // coalescer waits of the replay (coalescing servers)
	checked    int
	mismatched int
	handlerMS  []float64
	transport  []float64
	missing    int // traced requests whose worker span was not collected
}

// replayTraced replays each sender's traced requests, in order, through an
// in-process stack configured like the server: decode, the coalescer when
// the server coalesces, session.Manager, the published snapshot, and the
// response encoder. Each call is timed and attached as a child of the
// request's worker handler span; answers are compared with the server's.
func replayTraced(w *workload, seed int64, ss []*sender, workerMicros map[string]float64) (*replayResult, error) {
	mgr, err := newManager(w)
	if err != nil {
		return nil, err
	}
	rp := &replayResult{
		table: newTraceTable(), mgr: mgr,
		stageMS: map[string]float64{}, stageRuns: map[string]int{},
		strategies: map[string]int{}, patterns: map[string]int{},
	}
	var train, infer *coalesce.Coalescer
	if w.coalesce {
		if train, err = coalesce.New(coalesce.Config{Run: func(b coalesce.Batch) (any, error) {
			return timedProcess(mgr, b.ID, b.X, b.Y)
		}}); err != nil {
			return nil, err
		}
		if infer, err = coalesce.New(coalesce.Config{Run: func(b coalesce.Batch) (any, error) {
			return timedInferGroup(mgr, b)
		}}); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			errs[i] = replaySender(w, seed, s, mgr, train, infer, workerMicros, rp, &mu)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			mgr.Close()
			return nil, err
		}
	}
	return rp, nil
}

// processed is one timed ProcessBatch call and its trace event.
type processed struct {
	res   core.Result
	ms    float64
	event obs.TraceEvent
}

func timedProcess(mgr *session.Manager, id string, x [][]float64, y []int) (*processed, error) {
	t0 := time.Now()
	res, err := mgr.ProcessBatch(context.Background(), id, stream.Batch{X: x, Y: y})
	ms := msSince(t0)
	if err != nil {
		return nil, err
	}
	p := &processed{res: res, ms: ms}
	if sess, ok := mgr.Get(id); ok {
		if ev := sess.Observer().Trace().Last(1); len(ev) == 1 {
			p.event = ev[0]
		}
	}
	return p, nil
}

// inferred is one stream's timed read path: the session lookup, the
// snapshot load and the fused forward pass.
type inferred struct {
	outs                    []strategy.InferOutput
	ensureMS, loadMS, fwdMS float64
	snapBatch               int
	snapAgeMS               float64
	runMS                   float64 // whole runner pass (coalesced reads)
	segIndex                []int   // member -> index into outs
}

func timedInfer(mgr *session.Manager, id string, groups [][][]float64) (*inferred, error) {
	t0 := time.Now()
	sess, err := mgr.Ensure(id)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	snap := sess.ModelSnapshot()
	t2 := time.Now()
	outs, err := snap.InferFused(groups)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	return &inferred{
		outs: outs, snapBatch: snap.Batch, snapAgeMS: msBetween(snap.PublishedAt, t2),
		ensureMS: msBetween(t0, t1), loadMS: msBetween(t1, t2), fwdMS: msBetween(t2, t3),
	}, nil
}

// timedInferGroup is the benchmark's runner for the cross-stream infer
// coalescer: one timed read path per stream in the group.
func timedInferGroup(mgr *session.Manager, b coalesce.Batch) (any, error) {
	t0 := time.Now()
	byStream := map[string]*inferred{}
	perMember := make([]*inferred, len(b.Segs))
	index := make([]int, len(b.Segs))
	var order []string
	groups := map[string][][][]float64{}
	for i, seg := range b.Segs {
		if _, ok := groups[seg.ID]; !ok {
			order = append(order, seg.ID)
		}
		index[i] = len(groups[seg.ID])
		groups[seg.ID] = append(groups[seg.ID], b.X[seg.Lo:seg.Hi])
	}
	for _, id := range order {
		inf, err := timedInfer(mgr, id, groups[id])
		if err != nil {
			return nil, err
		}
		byStream[id] = inf
	}
	run := msSince(t0)
	for i, seg := range b.Segs {
		inf := *byStream[seg.ID]
		inf.runMS = run
		inf.segIndex = index
		perMember[i] = &inf
	}
	return perMember, nil
}

func msSince(t time.Time) float64      { return float64(time.Since(t)) / 1e6 }
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

// replaySender replays one sender's requests in the order it sent them.
func replaySender(w *workload, seed int64, s *sender, mgr *session.Manager, train, infer *coalesce.Coalescer,
	workerMicros map[string]float64, rp *replayResult, mu *sync.Mutex) error {
	sc := newSchedule(w, s.idx, seed)
	var setup []request
	for _, f := range sc.feeds {
		r, err := f.next()
		if err != nil {
			return err
		}
		setup = append(setup, r)
	}
	var buf []byte
	frame := &wire.Frame{}
	for n, o := range s.outs {
		var r request
		var err error
		if n < len(setup) {
			r = setup[n]
		} else if r, err = sc.pop(); err != nil {
			return err
		}
		if r.stream != o.stream || r.batch != o.batch || r.labeled != o.labeled {
			return fmt.Errorf("traced replay out of step with sender %d at request %d", s.idx, n)
		}
		if buf, err = encode(w, r, "", buf); err != nil {
			return err
		}

		root := &span{name: "request", ms: o.clientMS}
		root.child("client.encode", o.encodeMS)
		httpSpan := root.child("serve.transport", o.rtMS)
		parent := httpSpan
		if o.ans.routerMicros > 0 {
			parent = httpSpan.child("dist.hop", o.ans.routerMicros/1e3)
		}
		// The worker's span covers the handler from the decoded batch to the
		// learner's answer; decoding the request and encoding the response
		// happen outside it, on the worker, within the round trip.
		hm, ok := workerMicros[o.traceID]
		handler := parent.child("serve.handler", hm/1e3)

		// Decode, as the server does for this transport.
		t0 := time.Now()
		if w.transport == transportJSON {
			var req serve.ProcessRequest
			dec := json.NewDecoder(bytes.NewReader(buf))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		} else {
			body := buf
			if w.transport == transportConn {
				body = buf[4:]
			}
			err = frame.DecodeInto(body)
		}
		decodeMS := msSince(t0)
		if err != nil {
			return fmt.Errorf("decode request: %w", err)
		}
		parent.child("wire.decode", decodeMS)

		var preds []int
		var resp any
		if r.labeled {
			var p *processed
			if train != nil {
				t0 := time.Now()
				sub, err := train.Submit(context.Background(), r.id, r.x, r.y)
				if err != nil {
					return err
				}
				p = sub.Out.(*processed)
				preds = p.res.Pred[sub.Lo:sub.Hi]
				wait := handler.child("coalesce.wait", msSince(t0))
				run := wait.child("coalesce.run", p.ms)
				addProcess(run, p)
				mu.Lock()
				rp.waitMS = append(rp.waitMS, wait.self())
				mu.Unlock()
			} else {
				if p, err = timedProcess(mgr, r.id, r.x, r.y); err != nil {
					return err
				}
				addProcess(handler, p)
			}
			if preds == nil {
				preds = p.res.Pred
			}
			resp = serve.ProcessResponse{Stream: r.id, Predictions: preds, Pattern: p.event.Pattern,
				Strategy: p.event.Strategy, ShiftDistance: p.res.Observation.Distance,
				Severity: p.res.Observation.Severity, Accuracy: p.res.Accuracy}
			mu.Lock()
			rp.processMS = append(rp.processMS, p.ms)
			countEvent(rp, p.event)
			mu.Unlock()
		} else {
			var inf *inferred
			var member int
			at := handler
			if infer != nil {
				t0 := time.Now()
				sub, err := infer.SubmitInfer(context.Background(), r.id, "", r.x)
				if err != nil {
					return err
				}
				inf = sub.Out.([]*inferred)[sub.Member]
				member = inf.segIndex[sub.Member]
				wait := handler.child("coalesce.wait", msSince(t0))
				at = wait.child("coalesce.run", inf.runMS)
				mu.Lock()
				rp.waitMS = append(rp.waitMS, wait.self())
				mu.Unlock()
			} else if inf, err = timedInfer(mgr, r.id, [][][]float64{r.x}); err != nil {
				return err
			}
			at.child("session.ensure", inf.ensureMS)
			at.child("strategy.snapshot_load", inf.loadMS)
			at.child("strategy.infer_fused", inf.fwdMS)
			preds = inf.outs[member].Pred
			resp = serve.InferResponse{Stream: r.id, Predictions: preds, Strategy: "ensemble",
				SnapshotBatch: inf.snapBatch, SnapshotAgeMS: inf.snapAgeMS, KnowledgeDistance: inf.outs[member].KnowledgeDist}
		}

		t0 = time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		encodeMS := msSince(t0)
		parent.child("wire.encode", encodeMS)

		mu.Lock()
		rp.checked++
		if !o.ok || !sameAnswer(preds, o.ans.preds) {
			rp.mismatched++
		}
		if ok {
			rp.table.add(root)
			rp.handlerMS = append(rp.handlerMS, hm/1e3)
			rp.transport = append(rp.transport, httpSpan.self())
		} else {
			rp.missing++
		}
		rp.encodeMS = append(rp.encodeMS, encodeMS)
		mu.Unlock()
	}
	return nil
}

// addProcess attaches a ProcessBatch call and its learner stages, taken
// from the batch's decision-trace event.
func addProcess(parent *span, p *processed) {
	sp := parent.child("session.process", p.ms)
	for _, st := range p.event.Stages {
		sp.child("core."+st.Stage, st.Micros/1e3)
	}
}

func countEvent(rp *replayResult, ev obs.TraceEvent) {
	for _, st := range ev.Stages {
		rp.stageMS[st.Stage] += st.Micros / 1e3
		rp.stageRuns[st.Stage]++
	}
	rp.strategies[strategyLabel(ev.Strategy)]++
	p := ev.Pattern
	if ev.SubPattern != "" {
		p = ev.SubPattern
	}
	if i := strings.IndexByte(p, '('); i >= 0 {
		p = p[:i]
	}
	rp.patterns[p]++
}

// strategyLabel shortens core.Strategy names to the metric suffixes.
func strategyLabel(s string) string {
	switch s {
	case core.StrategyEnsemble.String():
		return "ensemble"
	case core.StrategyCEC.String():
		return "cec"
	case core.StrategyKnowledge.String():
		return "knowledge"
	}
	return s
}

func sameAnswer(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
