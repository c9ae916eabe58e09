package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/serve"
)

// setupReps is how many times a run boots the servers to time set-up; the
// last boot serves the measured run.
const setupReps = 9

// outcome records one request.
type outcome struct {
	stream, batch int
	labeled       bool
	setup         bool // a set-up request: checked, but not timed
	ok            bool // answered 200 and passed the inline checks
	refused       bool
	rows          int
	bytes         int
	latMS         float64 // from the due time (open loop) or the send (closed)
	lateMS        float64 // how late the send left against its due time
	encodeMS      float64 // client-side request encoding
	rtMS          float64 // the round trip alone
	clientMS      float64 // encoding, round trip and answer checks
	preds         []byte  // labeled answers, kept for the replay gate
	ans           answer
	traceID       string
}

// sender drives one connection: its own streams, in schedule order.
type sender struct {
	w        *workload
	idx      int
	sc       *schedule
	cn       conn
	statsURL string
	stats    *http.Client
	buf      []byte
	encodeMS float64 // time prepare spent encoding the pending request

	outs    []outcome
	labeled map[int]int                 // labeled answers per stream
	gstats  map[int]serve.StatsResponse // stream stats read at statsAt
	err     error                       // first failure that stops the sender
	traced  bool                        // give each request its own trace id
}

func newSender(w *workload, idx int, seed int64, c *cluster) (*sender, error) {
	cn, err := dial(w, c)
	if err != nil {
		return nil, err
	}
	return &sender{
		w: w, idx: idx, sc: newSchedule(w, idx, seed), cn: cn,
		statsURL: "http://" + c.httpAddr,
		stats:    &http.Client{Timeout: 30 * time.Second},
		labeled:  map[int]int{},
		gstats:   map[int]serve.StatsResponse{},
	}, nil
}

func (s *sender) close() {
	s.cn.close()
	s.stats.CloseIdleConnections()
}

// reached reports whether every stream of the sender has had statsAt
// labeled answers, so its g_acc and si have been read.
func (s *sender) reached() bool {
	for _, f := range s.sc.feeds {
		if s.labeled[f.stream] < s.w.statsAt {
			return false
		}
	}
	return true
}

// check applies the inline correctness checks to one answer: status, row
// count, label range, and for reads the snapshot the answer came from,
// which must have learned exactly the batches written before the read.
func check(w *workload, r request, a answer) error {
	if a.status != http.StatusOK {
		return fmt.Errorf("status %d", a.status)
	}
	if len(a.preds) != len(r.x) {
		return fmt.Errorf("%d predictions for %d rows", len(a.preds), len(r.x))
	}
	for _, p := range a.preds {
		if p < 0 || p >= w.classes {
			return fmt.Errorf("label %d out of range [0,%d)", p, w.classes)
		}
	}
	if !r.labeled && a.snapshotBatch != r.batch {
		return fmt.Errorf("read of stream %s answered by snapshot batch %d, want %d", r.id, a.snapshotBatch, r.batch)
	}
	return nil
}

// prepare encodes r into the sender's buffer, under a fresh trace id when
// the sender is traced.
func (s *sender) prepare(r request) (tp string, err error) {
	if s.traced {
		tp = obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}.Traceparent()
	}
	t0 := time.Now()
	s.buf, err = encode(s.w, r, tp, s.buf)
	s.encodeMS = float64(time.Since(t0)) / 1e6
	return tp, err
}

// send sends the prepared request r, records the outcome, and reads the
// stream's stats once its statsAt-th labeled batch is answered. Latency is
// timed from origin, lateness from due.
func (s *sender) send(r request, tp string, due, origin time.Time, setup bool) outcome {
	body := s.buf
	start := time.Now()
	a, err := s.cn.do(r, body, tp)
	end := time.Now()
	o := outcome{
		stream: r.stream, batch: r.batch, labeled: r.labeled, setup: setup,
		rows: len(r.x), bytes: len(body), ans: a,
		latMS:    float64(end.Sub(origin)) / 1e6,
		lateMS:   float64(start.Sub(due)) / 1e6,
		encodeMS: s.encodeMS,
		rtMS:     float64(end.Sub(start)) / 1e6,
	}
	if tc, ok := obs.ParseTraceparent(tp); ok {
		o.traceID = tc.TraceID
	}
	switch {
	case err != nil:
		o.refused = refused(0, err)
	case refused(a.status, nil):
		o.refused = true
	default:
		o.ok = check(s.w, r, a) == nil
	}
	if o.ok && r.labeled {
		o.preds = make([]byte, len(a.preds))
		for i, p := range a.preds {
			o.preds[i] = byte(p)
		}
		s.labeled[r.stream]++
		if s.labeled[r.stream] == s.w.statsAt {
			var st serve.StatsResponse
			if err := getJSON(s.stats, s.statsURL+"/v1/streams/"+r.id+"/stats", &st); err != nil && s.err == nil {
				s.err = fmt.Errorf("read stats of %s: %w", r.id, err)
			}
			s.gstats[r.stream] = st
		}
	}
	if !s.traced {
		o.ans.preds = nil // labeled answers are kept in o.preds; reads were checked
	}
	o.clientMS = o.encodeMS + float64(time.Since(start))/1e6
	s.outs = append(s.outs, o)
	return o
}

// first sends each stream's first request, retrying while the servers
// finish starting.
func (s *sender) first() error {
	for _, f := range s.sc.feeds {
		r, err := f.next()
		if err != nil {
			return err
		}
		tp, err := s.prepare(r)
		if err != nil {
			return err
		}
		giveUp := time.Now().Add(30 * time.Second)
		for {
			now := time.Now()
			o := s.send(r, tp, now, now, true)
			if o.ok || !(o.refused || o.ans.status == 0 || o.ans.status == http.StatusBadGateway) {
				break // answered: a failure is recorded, not retried
			}
			s.outs = s.outs[:len(s.outs)-1] // not yet listening: a start-up retry, not a request of the run
			if time.Now().After(giveUp) {
				return fmt.Errorf("stream %s got no answer within 30s (status %d)", r.id, o.ans.status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// closedLoop sends the next request as soon as the previous one is
// answered, until the deadline has passed and every stream reached statsAt.
func (s *sender) closedLoop(deadline time.Time, limit int) error {
	for n := 0; limit < 0 || n < limit; n++ {
		if limit < 0 && time.Now().After(deadline) && s.reached() {
			return nil
		}
		r, err := s.sc.pop()
		if err != nil {
			return err
		}
		tp, err := s.prepare(r)
		if err != nil {
			return err
		}
		now := time.Now()
		s.send(r, tp, now, now, false)
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// openLoop sends at rate requests per second on a fixed schedule, timing
// each request from its due time. A sender that falls behind sends late,
// never skips an arrival, and the lateness is recorded. The arrivals are
// evenly spaced, not Poisson: each sender stands for many independent
// clients over one connection, and bursty arrivals would queue on that
// connection, in the client, where no population of clients would.
func (s *sender) openLoop(start, deadline time.Time, rate float64, limit int) error {
	gap := time.Duration(float64(time.Second) / rate)
	due := start.Add(gap * time.Duration(s.idx) / time.Duration(s.w.senders)) // senders interleave
	for n := 0; limit < 0 || n < limit; n++ {
		due = due.Add(gap)
		if limit < 0 && due.After(deadline) && s.reached() {
			return nil
		}
		r, err := s.sc.pop()
		if err != nil {
			return err
		}
		tp, err := s.prepare(r)
		if err != nil {
			return err
		}
		// A request is timed from its due time, so a stall delays every
		// request queued behind it; only when the sender was idle at the due
		// time does the clock start at the send, so the sleep's wake-up
		// slack (about 0.2–0.6 ms here, reported as lateness) is not charged
		// to the system.
		origin := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			origin = time.Now()
		}
		s.send(r, tp, due, origin, false)
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// drive runs every sender's loop in parallel and waits for all of them.
// limit < 0 runs until the deadline; otherwise each sender sends exactly
// limit[i] requests.
func drive(ss []*sender, w *workload, seconds float64, limits []int) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		limit := -1
		if limits != nil {
			limit = limits[i]
		}
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			if w.rate > 0 {
				errs[i] = s.openLoop(start, deadline, w.rate/float64(len(ss)), limit)
			} else {
				errs[i] = s.closedLoop(deadline, limit)
			}
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// bootAndAnswer boots the cluster and opens the senders, returning once
// every stream has had its first successful answer. traced turns on the
// router's tracing and gives every request its own trace id.
func bootAndAnswer(bin string, w *workload, seed int64, traced bool) (*cluster, []*sender, time.Duration, error) {
	t0 := time.Now()
	c, err := boot(bin, w, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	ss := make([]*sender, w.senders)
	for i := range ss {
		if ss[i], err = newSender(w, i, seed, c); err != nil {
			closeAll(c, ss)
			return nil, nil, 0, err
		}
		ss[i].traced = traced
	}
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			errs[i] = s.first()
		}(i, s)
	}
	wg.Wait()
	setup := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			closeAll(c, ss)
			return nil, nil, 0, err
		}
	}
	return c, ss, setup, nil
}

func closeAll(c *cluster, ss []*sender) {
	for _, s := range ss {
		if s != nil {
			s.close()
		}
	}
	c.stop()
}

// runResult is one measured run.
type runResult struct {
	setup   []time.Duration
	senders []*sender
	elapsed time.Duration
	rssMB   float64
	steal   float64 // share of CPU time stolen by the hypervisor during the run
	prior   counts  // requests of attempts discarded for host contention
}

// measure times set-up setupReps times, then drives the workload for
// seconds on the last boot.
func measure(bin string, w *workload, seed int64, seconds float64) (*runResult, error) {
	res := &runResult{}
	for i := 0; i < setupReps; i++ {
		c, ss, setup, err := bootAndAnswer(bin, w, seed, false)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, setup)
		if i < setupReps-1 {
			closeAll(c, ss)
			continue
		}
		res.senders = ss
		before := readCPUStat()
		res.elapsed, err = drive(ss, w, seconds, nil)
		res.steal = readCPUStat().stealSince(before)
		if err == nil {
			res.rssMB, err = c.peakRSSMB()
		}
		closeAll(c, ss)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cpuStat is the all-CPU line of /proc/stat: total and stolen ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st
}

// stealSince is the share of CPU time stolen since before (0 when
// /proc/stat is unreadable).
func (st cpuStat) stealSince(before cpuStat) float64 {
	if d := st.total - before.total; d > 0 {
		return (st.steal - before.steal) / d
	}
	return 0
}
