package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freewayml/internal/obs"
)

// echoRun returns the fused rows so members can check scatter ranges.
type echoOut struct {
	x       [][]float64
	y       []int
	members int
}

func echoRun(b Batch) (any, error) {
	cp := make([][]float64, len(b.X))
	for i, r := range b.X {
		cp[i] = append([]float64(nil), r...)
	}
	return echoOut{x: cp, y: append([]int(nil), b.Y...), members: b.Members}, nil
}

func row(vals ...float64) []float64 { return vals }

func TestSoloPassThrough(t *testing.T) {
	c, err := New(Config{Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(context.Background(), "s", [][]float64{row(1, 2), row(3, 4)}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo != 0 || res.Hi != 2 || res.Members != 1 || res.Rows != 2 {
		t.Fatalf("solo result %+v", res)
	}
	out := res.Out.(echoOut)
	if out.x[1][0] != 3 || out.y[1] != 1 {
		t.Fatalf("echoed batch %+v", out)
	}
}

// TestGroupCommitFuses pins the core behavior: batches arriving while a
// pass is in flight fuse into one group that runs right after it.
func TestGroupCommitFuses(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	run := func(b Batch) (any, error) {
		if calls.Add(1) == 1 {
			<-gate // hold the first pass so followers pile up
		}
		return echoRun(b)
	}
	c, err := New(Config{Run: run})
	if err != nil {
		t.Fatal(err)
	}

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "s", [][]float64{row(0, 0)}, nil)
		firstDone <- err
	}()
	// Wait until the first pass is actually inside Run.
	waitFor(t, func() bool { return calls.Load() == 1 })

	const followers = 4
	results := make(chan Result, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Submit(context.Background(), "s",
				[][]float64{row(float64(i), 1), row(float64(i), 2)}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results <- res
		}()
	}
	// Followers must all be packed into the key's next group before release.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		ks := c.keys[key{id: "s"}]
		return ks != nil && ks.cur != nil && ks.cur.members == followers
	})
	close(gate)
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	close(results)
	for res := range results {
		if res.Members != followers || res.Rows != 2*followers {
			t.Fatalf("follower saw group %d members %d rows, want %d/%d",
				res.Members, res.Rows, followers, 2*followers)
		}
		out := res.Out.(echoOut)
		mine := out.x[res.Lo:res.Hi]
		if len(mine) != 2 || mine[0][1] != 1 || mine[1][1] != 2 || mine[0][0] != mine[1][0] {
			t.Fatalf("scatter range [%d:%d) holds someone else's rows: %v", res.Lo, res.Hi, mine)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d passes, want 2 (solo + fused)", got)
	}
}

func TestMaxRowsSeals(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	var maxRows atomic.Int64
	run := func(b Batch) (any, error) {
		if calls.Add(1) == 1 {
			<-gate
		}
		if n := int64(len(b.X)); n > maxRows.Load() {
			maxRows.Store(n)
		}
		return echoRun(b)
	}
	c, err := New(Config{Run: run, MaxRows: 4})
	if err != nil {
		t.Fatal(err)
	}

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "s", [][]float64{row(9)}, nil)
		firstDone <- err
	}()
	waitFor(t, func() bool { return calls.Load() == 1 })

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ { // 6×2 rows against MaxRows=4 → ≥3 groups
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), "s", [][]float64{row(1), row(2)}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		total := 0
		if ks := c.keys[key{id: "s"}]; ks != nil {
			if ks.cur != nil {
				total += ks.cur.members
			}
			for _, g := range ks.pending {
				if g != ks.cur {
					total += g.members
				}
			}
		}
		return total == 6
	})
	close(gate)
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if maxRows.Load() > 4 {
		t.Fatalf("a fused pass had %d rows, cap is 4", maxRows.Load())
	}

	// A single oversized batch must still run, as its own group.
	res, err := c.Submit(context.Background(), "big", [][]float64{row(1), row(2), row(3), row(4), row(5), row(6)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 6 || res.Members != 1 {
		t.Fatalf("oversized batch result %+v", res)
	}
}

func TestLabeledUnlabeledNotFused(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	var labeledRows, unlabeledRows atomic.Int64
	run := func(b Batch) (any, error) {
		if calls.Add(1) == 1 {
			<-gate
		}
		if b.Y != nil {
			labeledRows.Add(int64(len(b.X)))
			if len(b.Y) != len(b.X) {
				return nil, fmt.Errorf("group has %d labels for %d rows", len(b.Y), len(b.X))
			}
		} else {
			unlabeledRows.Add(int64(len(b.X)))
		}
		return echoRun(b)
	}
	c, err := New(Config{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "s", [][]float64{row(0)}, []int{1})
		firstDone <- err
	}()
	waitFor(t, func() bool { return calls.Load() == 1 })

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		labeled := i == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			var y []int
			if labeled {
				y = []int{0}
			}
			if _, err := c.Submit(context.Background(), "s", [][]float64{row(1)}, y); err != nil {
				t.Error(err)
			}
		}()
	}
	// The unlabeled key is independent: its pass runs to completion while the
	// labeled key's gate is still held, proving the two never fuse. The
	// labeled follower must be queued behind the gated pass.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		lab := c.keys[key{id: "s", labeled: true}]
		return lab != nil && lab.cur != nil && lab.cur.members == 1 &&
			unlabeledRows.Load() == 1
	})
	close(gate)
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if labeledRows.Load() != 2 || unlabeledRows.Load() != 1 {
		t.Fatalf("labeled rows %d unlabeled %d, want 2/1", labeledRows.Load(), unlabeledRows.Load())
	}
}

func TestRunErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	c, err := New(Config{Run: func(Batch) (any, error) { return nil, boom }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), "s", [][]float64{row(1)}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSubmitRejects(t *testing.T) {
	c, err := New(Config{Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Submit(ctx, "s", nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.Submit(ctx, "s", [][]float64{{}}, nil); err == nil {
		t.Fatal("zero-width rows accepted")
	}
	if _, err := c.Submit(ctx, "s", [][]float64{row(1, 2), row(3)}, nil); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := c.Submit(ctx, "s", [][]float64{row(1)}, []int{0, 1}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

// TestCancelledMemberDoesNotSinkGroup: a member that gives up waiting gets
// ctx.Err(), and the group still runs with its rows for the others.
func TestCancelledMemberDoesNotSinkGroup(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	var fusedRows atomic.Int64
	run := func(b Batch) (any, error) {
		if calls.Add(1) == 1 {
			<-gate
		} else {
			fusedRows.Store(int64(len(b.X)))
		}
		return echoRun(b)
	}
	c, err := New(Config{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "s", [][]float64{row(0)}, nil)
		firstDone <- err
	}()
	waitFor(t, func() bool { return calls.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	quitterDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, "s", [][]float64{row(1)}, nil)
		quitterDone <- err
	}()
	stayerDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), "s", [][]float64{row(2)}, nil)
		stayerDone <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		ks := c.keys[key{id: "s"}]
		return ks != nil && ks.cur != nil && ks.cur.members == 2
	})
	cancel()
	if err := <-quitterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("quitter err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-stayerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if fusedRows.Load() != 2 {
		t.Fatalf("fused pass ran %d rows, want 2 (quitter's row included)", fusedRows.Load())
	}
}

func TestWindowGathers(t *testing.T) {
	var calls atomic.Int64
	run := func(b Batch) (any, error) {
		calls.Add(1)
		return echoRun(b)
	}
	c, err := New(Config{Run: run, Window: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	const n = 4
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := c.Submit(context.Background(), "s", [][]float64{row(1)}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Members != n {
				t.Errorf("window pass fused %d members, want %d", res.Members, n)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d passes, want 1", calls.Load())
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c, err := New(Config{Run: echoRun, MaxRows: 8, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), "s", [][]float64{row(1), row(2)}, nil); err != nil {
		t.Fatal(err)
	}
	if m.Submits.Value() != 1 || m.Passes.Value() != 1 {
		t.Fatalf("submits %d passes %d, want 1/1", m.Submits.Value(), m.Passes.Value())
	}
	if m.Members.Count() != 1 || m.Rows.Count() != 1 || m.Wait.Count() != 1 || m.Fill.Count() != 1 {
		t.Fatal("pass histograms not observed")
	}
	if m.Depth.Value() != 0 {
		t.Fatalf("depth %v after drain, want 0", m.Depth.Value())
	}
}

// TestConcurrentStress drives many keys and members together; run with
// -race this is the memory-model check for the whole group chain.
func TestConcurrentStress(t *testing.T) {
	var rows atomic.Int64
	run := func(b Batch) (any, error) {
		rows.Add(int64(len(b.X)))
		return echoRun(b)
	}
	c, err := New(Config{Run: run, MaxRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("s%d", w%4)
				var y []int
				if i%2 == 0 {
					y = []int{0, 1}
				}
				res, err := c.Submit(context.Background(), id, [][]float64{row(1, 2), row(3, 4)}, y)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Hi-res.Lo != 2 {
					t.Errorf("member range %d rows, want 2", res.Hi-res.Lo)
				}
			}
		}()
	}
	wg.Wait()
	if got := rows.Load(); got != workers*per*2 {
		t.Fatalf("fused passes covered %d rows, want %d", got, workers*per*2)
	}
	c.mu.Lock()
	leftover := len(c.keys)
	c.mu.Unlock()
	if leftover != 0 {
		t.Fatalf("%d key states leaked after drain", leftover)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
