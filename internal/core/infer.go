package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"freewayml/internal/guard"
	"freewayml/internal/pca"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// InferResult is one group's inference-plane answer: predictions plus the
// provenance of the snapshot that served them.
type InferResult struct {
	Pred  []int
	Proba [][]float64
	// Strategy is StrategyWarmup while the snapshot predates the detector's
	// PCA fit, StrategyEnsemble afterwards (the read path never runs the
	// reactive B/C mechanisms — they mutate detector and cluster state and
	// belong to the training plane).
	Strategy Strategy
	// SnapshotBatch/SnapshotSeq/SnapshotAge identify the published snapshot
	// that answered, and how stale it was at read time.
	SnapshotBatch int
	SnapshotSeq   uint64
	SnapshotAge   time.Duration
	// KnowledgeDist is the distance to the nearest stored concept centroid
	// (-1 when no index or during warm-up). Observability only.
	KnowledgeDist float64
}

// ModelSnapshot returns the currently published inference snapshot. Safe
// from any goroutine, lock-free, never nil after NewLearner.
func (l *Learner) ModelSnapshot() *strategy.Snapshot { return l.snap.Load() }

// publishSnapshot rebuilds and atomically publishes the inference view.
// Called on the training goroutine: at construction, after every
// successful Process, and after a checkpoint restore. An asynchronous
// long-model update that completes after publication is picked up by the
// next batch's publish — the inference plane is at most one training batch
// (plus one in-flight async update) behind.
func (l *Learner) publishSnapshot(pattern shift.Pattern) {
	var proj *pca.Model
	if l.det.Ready() {
		proj = l.det.PCA()
	}
	l.snapSeq++
	l.snap.Store(&strategy.Snapshot{
		ComputeMu:   &l.inferMu,
		Members:     l.ens.PublishSnapshot(),
		Sigma:       l.cfg.Sigma,
		Proj:        proj,
		Knowledge:   l.kdg,
		Experience:  l.exp.Len(),
		Pattern:     pattern,
		Batch:       l.batch,
		Seq:         l.snapSeq,
		PublishedAt: time.Now(),
		Dim:         l.dim,
		Classes:     l.classes,
	})
}

// Infer predicts one group of label-less rows from the published snapshot.
// It never takes the learner's training-plane state: no detector, no
// window, no prequential bookkeeping — see InferFused.
func (l *Learner) Infer(ctx context.Context, x [][]float64) (InferResult, error) {
	rs, err := l.InferFused(ctx, [][][]float64{x})
	if err != nil {
		return InferResult{}, err
	}
	return rs[0], nil
}

// InferFused predicts many groups of rows in one fused pass against the
// published snapshot (one batched forward per ensemble member over all
// groups' rows). It is the lock-free read path: it loads the snapshot
// pointer atomically and touches no mutable learner state, so it runs
// concurrently with Process, checkpointing, and Close. A closed learner
// still answers from its last snapshot. Results are bitwise-identical to
// inferring each group separately (the GEMM kernels accumulate each output
// row independently of the total row count).
func (l *Learner) InferFused(ctx context.Context, groups [][][]float64) ([]InferResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, g := range groups {
		if len(g) == 0 {
			return nil, errors.New("core: infer: empty batch")
		}
		for _, row := range g {
			if len(row) != l.dim {
				return nil, fmt.Errorf("core: infer: row has %d features, want %d", len(row), l.dim)
			}
			// The training plane's guard repairs or rejects non-finite
			// features statefully (running feature means, health counters);
			// the read path must stay pure, so it only rejects.
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("core: infer: non-finite feature: %w", guard.ErrRejected)
				}
			}
		}
		total += len(g)
	}
	if total == 0 {
		return nil, errors.New("core: infer: no rows")
	}
	start := time.Now()
	snap := l.snap.Load()
	outs, err := snap.InferFused(groups)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	elapsed := time.Since(start)
	age := snap.Age()
	results := make([]InferResult, len(groups))
	for i, out := range outs {
		st := StrategyEnsemble
		if out.Warmup {
			st = StrategyWarmup
		}
		results[i] = InferResult{
			Pred:          out.Pred,
			Proba:         out.Proba,
			Strategy:      st,
			SnapshotBatch: snap.Batch,
			SnapshotSeq:   snap.Seq,
			SnapshotAge:   age,
			KnowledgeDist: out.KnowledgeDist,
		}
		l.obs.InferObserved(len(out.Pred), elapsed, age, snap.Batch, out.Warmup)
	}
	return results, nil
}
