// Package coalesce fuses small batches arriving concurrently for the same
// stream into one larger batch, so the compute core amortizes its per-pass
// overhead (staging, GEMM setup, detector bookkeeping) over many requests.
//
// The mechanism is group commit, so it is adaptive by construction: when a
// stream is idle its first batch runs immediately with zero added latency,
// and while that pass is in flight every batch that arrives for the same
// stream packs into the next group, which starts the instant the running
// pass completes. Load widens the fused batches automatically; there is no
// tuning knob that trades idle latency for throughput. An optional Window
// adds a fixed gathering delay on top, and MaxRows bounds group size.
//
// Groups are keyed by (stream id, labeledness): batches for different
// streams go to different models and cannot share a GEMM pass, and labeled
// updates must not fuse with inference-only traffic.
//
// Ownership: Submit packs the caller's rows into group-owned storage before
// returning control, so callers may recycle their buffers (e.g. return a
// pooled wire frame) as soon as Submit comes back — even if their context
// is cancelled while the group is still queued.
package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"freewayml/internal/linalg"
	"freewayml/internal/obs"
)

// Batch is one fused group as handed to the Runner. X's rows are adjacent
// views into Fused's row-major slab, so tensor-aware models can consume the
// whole group as a single blocked-GEMM pass. The slab is freshly built per
// group and never recycled: the learning core retains row references past
// the pass (sliding windows, replay buffers), so the batch must stay valid
// indefinitely.
type Batch struct {
	// ID is the stream the group belongs to.
	ID string
	// X holds the packed feature rows of every member, in submission order.
	X [][]float64
	// Y holds the packed labels, or nil for an inference-only group.
	Y []int
	// Fused is the row-major tensor behind X.
	Fused *linalg.Tensor
	// Members is the number of submitted batches packed into this group.
	Members int
	// TraceIDs lists the request trace ids of the members that carried one,
	// submission order. May be shorter than Members (untraced members are
	// not represented); nil when no member was traced.
	TraceIDs []string
	// Segs maps each member to its stream and row range, in submission
	// order — set only for cross-stream inference groups (ID is then empty).
	Segs []Segment
}

// Segment is one member's slice of a cross-stream inference group.
type Segment struct {
	// ID is the member's stream.
	ID string
	// Lo and Hi delimit the member's rows in the fused slab (half-open).
	Lo, Hi int
}

// Runner executes one fused group and returns an opaque result shared by
// all members. It runs outside any member's request context: by the time a
// group runs, members may already have given up waiting, but their rows are
// in the group and the pass must complete for the others.
type Runner func(b Batch) (any, error)

// Result is what one member gets back from a fused pass.
type Result struct {
	// Out is the Runner's result, shared by every member of the group.
	Out any
	// Lo and Hi delimit this member's rows within the fused batch
	// (half-open, so per-member predictions are Pred[Lo:Hi]).
	Lo, Hi int
	// Member is this member's ordinal within the group (submission order),
	// matching its index in Batch.Segs for cross-stream inference groups.
	Member int
	// Members and Rows describe the whole group.
	Members int
	Rows    int
}

// Config parameterizes a Coalescer.
type Config struct {
	// Run executes a fused group. Required.
	Run Runner
	// Window is an optional extra gathering delay applied after a group
	// becomes runnable. Zero (the default) is pure group commit: no added
	// latency when idle.
	Window time.Duration
	// MaxRows seals a group once joining would push it past this many rows;
	// the next batch opens a fresh group behind it. Zero means unbounded. A
	// single batch larger than MaxRows still runs, as a group of its own.
	MaxRows int
	// Metrics, when set, records coalescing behavior.
	Metrics *Metrics
}

// Metrics is the coalescer's observability surface.
type Metrics struct {
	Submits *obs.Counter   // member batches submitted
	Passes  *obs.Counter   // fused passes executed
	Members *obs.Histogram // member batches per pass
	Rows    *obs.Histogram // rows per pass
	Wait    *obs.Histogram // seconds from group open to pass start
	Fill    *obs.Histogram // rows/MaxRows at pass start (MaxRows > 0 only)
	Depth   *obs.Gauge     // groups gathering or queued right now
}

// NewMetrics registers the coalescer metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Submits: reg.Counter("freeway_coalesce_submits_total", "Member batches submitted to the coalescer."),
		Passes:  reg.Counter("freeway_coalesce_passes_total", "Fused passes executed."),
		Members: reg.Histogram("freeway_coalesce_members", "Member batches fused per pass.", obs.ExponentialBuckets(1, 2, 8)),
		Rows:    reg.Histogram("freeway_coalesce_rows", "Rows per fused pass.", obs.ExponentialBuckets(1, 2, 12)),
		Wait:    reg.Histogram("freeway_coalesce_wait_seconds", "Time from group open to fused pass start.", nil),
		Fill:    reg.Histogram("freeway_coalesce_fill_ratio", "Rows over MaxRows at pass start.", obs.LinearBuckets(0.1, 0.1, 10)),
		Depth:   reg.Gauge("freeway_coalesce_depth", "Groups gathering or queued."),
	}
}

type key struct {
	id      string
	labeled bool
	// infer marks the cross-stream inference key: label-less rows from
	// every stream share one group (id is empty), since pure inference
	// carries no per-stream training state and per-stream snapshots can be
	// applied to row ranges of one fused slab.
	infer bool
}

// group is one fused batch being gathered, queued, or run. All fields
// except the channels are guarded by the coalescer mutex until the group is
// sealed; out and err are written before done is closed and read only
// after.
type group struct {
	key     key
	cols    int
	flat    []float64 // packed row-major features
	y       []int
	rows    int
	members int
	traces  []string
	segs    []Segment
	sealed  bool
	created time.Time
	ready   chan struct{} // closed when the group may start its pass
	done    chan struct{} // closed when out/err are valid
	out     any
	err     error
}

// keyState chains the groups of one key: at most one pass runs at a time
// per key, cur (if any) is the group currently accepting members, and
// pending holds sealed-or-gathering groups awaiting their turn in FIFO
// order.
type keyState struct {
	running bool
	cur     *group
	pending []*group
}

// Coalescer fuses concurrent same-key batches into group-committed passes.
type Coalescer struct {
	cfg   Config
	mu    sync.Mutex
	keys  map[key]*keyState
	depth int
}

// New validates cfg and builds a Coalescer.
func New(cfg Config) (*Coalescer, error) {
	if cfg.Run == nil {
		return nil, errors.New("coalesce: Config.Run is required")
	}
	if cfg.Window < 0 || cfg.MaxRows < 0 {
		return nil, errors.New("coalesce: Window and MaxRows must be >= 0")
	}
	return &Coalescer{cfg: cfg, keys: make(map[key]*keyState)}, nil
}

// Submit packs the batch into the open group for (id, labeledness of y) —
// opening one if needed — and blocks until the group's pass completes,
// returning this member's row range alongside the shared result. If ctx is
// cancelled while waiting, Submit returns ctx.Err(); the rows stay in the
// group and the pass still runs for the remaining members.
func (c *Coalescer) Submit(ctx context.Context, id string, x [][]float64, y []int) (Result, error) {
	return c.SubmitTraced(ctx, id, "", x, y)
}

// SubmitTraced is Submit with a request trace id recorded as part of the
// group's membership, so the fused pass's TraceEvent can name every
// request it served. An empty traceID leaves the membership untouched.
func (c *Coalescer) SubmitTraced(ctx context.Context, id, traceID string, x [][]float64, y []int) (Result, error) {
	return c.submit(ctx, key{id: id, labeled: y != nil}, id, traceID, x, y)
}

// SubmitInfer packs label-less rows into the cross-stream inference group:
// rows from every stream share one fused slab and one blocked-GEMM pass,
// and the Runner scatters per-stream results back via Batch.Segs and each
// member's Result.Member ordinal. Row widths must match across streams (all
// sessions of one server share a feature dimensionality); a width change
// seals the group like any other.
func (c *Coalescer) SubmitInfer(ctx context.Context, id, traceID string, x [][]float64) (Result, error) {
	return c.submit(ctx, key{infer: true}, id, traceID, x, nil)
}

// submit packs the rows into the open group for k — opening one if needed —
// and blocks until the group's pass completes. segID names the member's
// stream in Batch.Segs for cross-stream inference keys; per-stream keys
// carry the stream in k.id and record no segments.
func (c *Coalescer) submit(ctx context.Context, k key, segID, traceID string, x [][]float64, y []int) (Result, error) {
	if len(x) == 0 {
		return Result{}, errors.New("coalesce: empty batch")
	}
	cols := len(x[0])
	if cols == 0 {
		return Result{}, errors.New("coalesce: zero-width rows")
	}
	for i := range x {
		if len(x[i]) != cols {
			return Result{}, fmt.Errorf("coalesce: row %d has %d features, row 0 has %d", i, len(x[i]), cols)
		}
	}
	if y != nil && len(y) != len(x) {
		return Result{}, fmt.Errorf("coalesce: %d labels for %d rows", len(y), len(x))
	}

	c.mu.Lock()
	ks := c.keys[k]
	if ks == nil {
		ks = &keyState{}
		c.keys[k] = ks
	}
	g := ks.cur
	if g != nil && (g.sealed || g.cols != cols ||
		(c.cfg.MaxRows > 0 && g.rows > 0 && g.rows+len(x) > c.cfg.MaxRows)) {
		// cur cannot take this member; seal it where it stands in the chain
		// and open a fresh group behind it.
		g.sealed = true
		ks.cur = nil
		g = nil
	}
	fresh := false
	if g == nil {
		g = &group{
			key:     k,
			cols:    cols,
			created: time.Now(),
			ready:   make(chan struct{}),
			done:    make(chan struct{}),
		}
		fresh = true
		ks.cur = g
		if !ks.running {
			ks.running = true
			close(g.ready)
		} else {
			ks.pending = append(ks.pending, g)
		}
		c.depth++
		if m := c.cfg.Metrics; m != nil {
			m.Depth.Set(float64(c.depth))
		}
	}
	lo := g.rows
	for _, row := range x {
		g.flat = append(g.flat, row...)
	}
	if y != nil {
		g.y = append(g.y, y...)
	}
	g.rows += len(x)
	member := g.members
	g.members++
	if traceID != "" {
		g.traces = append(g.traces, traceID)
	}
	hi := g.rows
	if k.infer {
		g.segs = append(g.segs, Segment{ID: segID, Lo: lo, Hi: hi})
	}
	c.mu.Unlock()

	if m := c.cfg.Metrics; m != nil {
		m.Submits.Inc()
	}
	if fresh {
		go c.runWhenReady(g)
	}

	select {
	case <-g.done:
		if g.err != nil {
			return Result{}, g.err
		}
		return Result{Out: g.out, Lo: lo, Hi: hi, Member: member, Members: g.members, Rows: g.rows}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// runWhenReady is each group's dedicated executor: it waits for the group's
// turn, optionally gathers for Window longer, seals the member list, runs
// the fused pass, then promotes the key's next group.
func (c *Coalescer) runWhenReady(g *group) {
	<-g.ready
	if c.cfg.Window > 0 {
		time.Sleep(c.cfg.Window)
	}

	c.mu.Lock()
	ks := c.keys[g.key]
	g.sealed = true
	if ks.cur == g {
		ks.cur = nil
	}
	c.depth--
	rows, cols := g.rows, g.cols
	fused := linalg.TensorView(g.flat, rows, cols)
	xv := make([][]float64, rows)
	for i := range xv {
		xv[i] = g.flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	if m := c.cfg.Metrics; m != nil {
		m.Depth.Set(float64(c.depth))
		m.Members.Observe(float64(g.members))
		m.Rows.Observe(float64(rows))
		m.Wait.Observe(time.Since(g.created).Seconds())
		if c.cfg.MaxRows > 0 {
			m.Fill.Observe(float64(rows) / float64(c.cfg.MaxRows))
		}
	}
	c.mu.Unlock()

	out, err := c.cfg.Run(Batch{ID: g.key.id, X: xv, Y: g.y, Fused: fused, Members: g.members, TraceIDs: g.traces, Segs: g.segs})
	if m := c.cfg.Metrics; m != nil {
		m.Passes.Inc()
	}

	c.mu.Lock()
	g.out, g.err = out, err
	if len(ks.pending) > 0 {
		next := ks.pending[0]
		ks.pending = ks.pending[1:]
		close(next.ready)
	} else {
		ks.running = false
		if ks.cur == nil {
			// Nothing gathering and nothing queued: drop the key so idle
			// streams do not accumulate state.
			delete(c.keys, g.key)
		}
	}
	c.mu.Unlock()
	close(g.done)
}
