package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"freewayml/internal/core"
	"freewayml/internal/session"
	"freewayml/internal/stream"
)

// learnerConfig is the learner configuration freeway-serve builds from the
// flags serverArgs passes it (its defaults plus -model and -kernel-tier),
// so an in-process session.Manager learns exactly what the server learns.
func learnerConfig(w *workload) core.Config {
	cfg := core.DefaultConfig()
	cfg.ModelFamily = w.model
	cfg.Seed = 1
	cfg.Hyper.Seed = 1
	cfg.KernelTier = w.tier
	return cfg
}

func newManager(w *workload) (*session.Manager, error) {
	return session.NewManager(session.Config{Learner: learnerConfig(w), Dim: w.dim, Classes: w.classes})
}

// gateResult is the outcome of the replay gate.
type gateResult struct {
	checked    int // labeled answers compared
	mismatched int // labeled answers that differ from the replay
	statsDiff  []string
}

// replayGate replays every stream's labeled batches, in the order the
// server answered them, through an in-process session.Manager built from
// the same commit and configuration, and compares each batch's predictions
// and the g_acc and si read at statsAt with the server's. Reads do not
// change learner state and are checked inline.
func replayGate(w *workload, seed int64, ss []*sender) (gateResult, error) {
	mgr, err := newManager(w)
	if err != nil {
		return gateResult{}, err
	}
	defer mgr.Close()

	type job struct {
		s *sender
		f *feed
	}
	var jobs []job
	for _, s := range ss {
		for _, f := range s.sc.feeds {
			jobs = append(jobs, job{s, f})
		}
	}
	// Streams are independent, so they replay in parallel, one goroutine
	// per CPU.
	next := make(chan job, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	var mu sync.Mutex
	var res gateResult
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range next {
				r, err := replayStream(w, mgr, newFeed(w, j.f.stream, seed), j.s)
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				res.checked += r.checked
				res.mismatched += r.mismatched
				res.statsDiff = append(res.statsDiff, r.statsDiff...)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func replayStream(w *workload, mgr *session.Manager, f *feed, s *sender) (gateResult, error) {
	var answers []outcome // the stream's labeled outcomes, in send order
	for _, o := range s.outs {
		if o.stream == f.stream && o.labeled {
			answers = append(answers, o)
		}
	}
	var res gateResult
	id := streamID(f.stream)
	for i, o := range answers {
		if !o.ok {
			// The failed write is already counted; the server's state past it
			// is unknown, so every later answer of the stream is unverified
			// and counted as mismatched.
			res.mismatched += len(answers) - i - 1
			return res, nil
		}
		r, err := nextLabeled(f)
		if err != nil {
			return res, err
		}
		if r.batch != o.batch {
			return res, fmt.Errorf("stream %s: replay at batch %d, answer for batch %d", id, r.batch, o.batch)
		}
		got, err := mgr.ProcessBatch(context.Background(), id, stream.Batch{X: r.x, Y: r.y})
		if err != nil {
			return res, fmt.Errorf("replay %s batch %d: %w", id, r.batch, err)
		}
		res.checked++
		if !samePreds(got.Pred, o.preds) {
			res.mismatched++
		}
		if i+1 == w.statsAt {
			sess, _ := mgr.Get(id)
			want, have := sess.Snapshot(), s.gstats[f.stream]
			if want.GAcc != have.GAcc || want.SI != have.SI {
				res.statsDiff = append(res.statsDiff, fmt.Sprintf("%s: server g_acc=%v si=%v, replay g_acc=%v si=%v",
					id, have.GAcc, have.SI, want.GAcc, want.SI))
			}
		}
	}
	return res, nil
}

// nextLabeled advances f to its next labeled request.
func nextLabeled(f *feed) (request, error) {
	for {
		r, err := f.next()
		if err != nil || r.labeled {
			return r, err
		}
	}
}

func samePreds(got []int, want []byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if p != int(want[i]) {
			return false
		}
	}
	return true
}
