package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/obs"
)

// fingerprintBatches is long enough for every Benchmark6 stream to close the
// adaptive window many times (testConfig caps it at 4 batches) and for the
// run as a whole to dispatch every mechanism: the ensemble on A1/A2, CEC on
// B and knowledge reuse on C.
const (
	fingerprintBatches = 120
	fingerprintBatch   = 64
	fingerprintSeed    = 11
)

// TestBehaviourFingerprint pins the f64 behaviour of the learner bit for
// bit: one fixed-seed run of each Benchmark6 simulator through
// core.Learner, recording per batch the detected pattern, the dispatched
// strategy and a hash of the predictions and probabilities, then the final
// G_acc and SI, the knowledge lookups' hits and misses and the store's
// counters, the window closes, and a hash of the published snapshot's
// InferFused answer on a fixed probe batch (the read plane). Any change to testdata/fingerprint.golden must be
// explained in CHANGES.md; on a mismatch the test prints the new
// fingerprint in full.
func TestBehaviourFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse x*y+z into one FMA on other architectures, which
		// changes the last bit of the kernels' sums.
		t.Skipf("golden fingerprint is recorded on amd64, running on %s", runtime.GOARCH)
	}
	var got strings.Builder
	for _, name := range datasets.Benchmark6() {
		fingerprintDataset(t, &got, name)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fingerprint.golden"))
	if err != nil {
		t.Fatalf("read golden: %v\nnew fingerprint:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Errorf("behaviour fingerprint changed (first difference at line %d)\nnew fingerprint:\n%s",
			firstDiffLine(got.String(), string(want)), got.String())
	}
}

func fingerprintDataset(t *testing.T, w *strings.Builder, name string) {
	t.Helper()
	src, err := datasets.Build(name, fingerprintBatch, fingerprintSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Seed = fingerprintSeed
	l, err := NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetObserver(NewObserver(obs.NewRegistry(), fingerprintBatches))

	fmt.Fprintf(w, "dataset %s dim=%d classes=%d\n", name, src.Dim(), src.Classes())
	closes, hits, misses := 0, 0, 0
	for i := 0; i < fingerprintBatches; i++ {
		b, ok := src.Next()
		if !ok {
			t.Fatalf("%s: stream ended after %d batches", name, i)
		}
		res, err := l.Process(context.Background(), b)
		if err != nil {
			t.Fatalf("%s batch %d: %v", name, i, err)
		}
		if ev, ok := l.Observer().Trace().Newest(); ok {
			if ev.WindowClosed {
				closes++
			}
			if ev.KnowledgeChecked && ev.KnowledgeHit {
				hits++
			} else if ev.KnowledgeChecked {
				misses++
			}
		}
		fmt.Fprintf(w, "  %03d %-7s %-30s %016x\n", i, res.SubPattern.Label(), res.Strategy, predHash(res.Pred, res.Proba))
	}
	if closes == 0 {
		t.Errorf("%s: no window close in %d batches; the run does not reach the long-model update", name, fingerprintBatches)
	}
	kc := l.KnowledgeStore().Counters()
	m := l.Metrics()
	fmt.Fprintf(w, "  g_acc=%s si=%s\n", exactFloat(m.GAcc()), exactFloat(m.SI()))
	fmt.Fprintf(w, "  knowledge hits=%d misses=%d matches=%d match_hits=%d preserves=%d replacements=%d window_closes=%d\n",
		hits, misses, kc.Matches, kc.MatchHits, kc.Preserves, kc.Replacements, closes)

	outs, err := l.ModelSnapshot().InferFused([][][]float64{probeRows(src.Dim())})
	if err != nil {
		t.Fatalf("%s: snapshot infer: %v", name, err)
	}
	fmt.Fprintf(w, "  probe %016x\n", predHash(outs[0].Pred, outs[0].Proba))
}

// probeRows is a fixed 16-row batch of standard-normal features.
func probeRows(dim int) [][]float64 {
	rng := rand.New(rand.NewSource(97))
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// predHash is an FNV-1a hash over the predicted labels and the exact bits
// of every probability.
func predHash(pred []int, proba [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range pred {
		put(uint64(p))
	}
	for _, row := range proba {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
