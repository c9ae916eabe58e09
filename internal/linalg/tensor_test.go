package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// gemmShapes covers the degenerate and non-block-multiple cases the blocked
// and parallel paths must not mishandle: 1×1, 1×N, N×1, shapes straddling
// gemmBlockK, and shapes large enough to cross parallelFlopCutoff.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 1, 9},
	{5, 1, 3},
	{3, 4, 5},
	{2, gemmBlockK, 2},
	{3, gemmBlockK + 1, 3},
	{7, 2*gemmBlockK - 1, 5},
	{64, 64, 64},  // above parallelFlopCutoff: exercises the goroutine path
	{97, 131, 53}, // parallel + nothing divides evenly
}

func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range gemmShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		got := NewTensor(s.m, s.n)
		want := NewTensor(s.m, s.n)
		Gemm(got, a, b)
		RefGemm(want, a, b)
		tensorsClose(t, got, want, 1e-9, "Gemm")

		// GemmAdd on a seeded C equals reference plus the seed.
		seed := randTensor(rng, s.m, s.n)
		acc := NewTensor(s.m, s.n)
		acc.CopyFrom(seed)
		GemmAdd(acc, a, b)
		for i := range want.Data {
			want.Data[i] += seed.Data[i]
		}
		tensorsClose(t, acc, want, 1e-9, "GemmAdd")
	}
}

func TestGemmTAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range gemmShapes {
		// A is k×m so Aᵀ×B is m×n.
		a := randTensor(rng, s.k, s.m)
		b := randTensor(rng, s.k, s.n)
		got := NewTensor(s.m, s.n)
		want := NewTensor(s.m, s.n)
		GemmTA(got, a, b)
		RefGemmTA(want, a, b)
		tensorsClose(t, got, want, 1e-9, "GemmTA")

		seed := randTensor(rng, s.m, s.n)
		acc := NewTensor(s.m, s.n)
		acc.CopyFrom(seed)
		GemmTAAdd(acc, a, b)
		for i := range want.Data {
			want.Data[i] += seed.Data[i]
		}
		tensorsClose(t, acc, want, 1e-9, "GemmTAAdd")
	}
}

func TestGemmTBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range gemmShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.n, s.k)
		got := NewTensor(s.m, s.n)
		want := NewTensor(s.m, s.n)
		GemmTB(got, a, b)
		RefGemmTB(want, a, b)
		tensorsClose(t, got, want, 1e-9, "GemmTB")
	}
}

func TestGemmAgainstMatrixMul(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	am := NewMatrix(6, 5)
	bm := NewMatrix(5, 4)
	for i := range am.Data {
		am.Data[i] = rng.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	cm := am.Mul(bm)
	got := NewTensor(6, 4)
	Gemm(got, TensorView(am.Data, 6, 5), TensorView(bm.Data, 5, 4))
	tensorsClose(t, got, TensorView(cm.Data, 6, 4), 1e-12, "Matrix.Mul vs Gemm")
}

func TestGemmShapePanics(t *testing.T) {
	cases := []func(){
		func() { Gemm(NewTensor(2, 2), NewTensor(2, 3), NewTensor(4, 2)) },
		func() { Gemm(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTA(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTB(NewTensor(2, 2), NewTensor(2, 3), NewTensor(2, 4)) },
		func() { TensorView(make([]float64, 5), 2, 3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEnsureTensorReusesBuffer(t *testing.T) {
	a := NewTensor(4, 8)
	data := &a.Data[0]
	b := EnsureTensor(a, 2, 4)
	if b != a || &b.Data[0] != data {
		t.Fatal("EnsureTensor should reuse the buffer when shrinking")
	}
	if b.Rows != 2 || b.Cols != 4 || len(b.Data) != 8 {
		t.Fatalf("bad reshape: %dx%d len %d", b.Rows, b.Cols, len(b.Data))
	}
	c := EnsureTensor(a, 10, 10)
	if len(c.Data) != 100 {
		t.Fatal("EnsureTensor should grow the buffer")
	}
	if got := EnsureTensor(nil, 3, 3); got == nil || len(got.Data) != 9 {
		t.Fatal("EnsureTensor(nil) should allocate")
	}
}

func TestTensorRowsRoundtrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	var tt Tensor
	tt.FromRows(rows, 3)
	back := tt.ToRows()
	for i := range rows {
		for j := range rows[i] {
			if back[i][j] != rows[i][j] {
				t.Fatalf("roundtrip mismatch at (%d,%d)", i, j)
			}
		}
	}
	// ToRows must copy: mutating the result leaves the tensor intact.
	back[0][0] = 99
	if tt.At(0, 0) != 1 {
		t.Fatal("ToRows aliases tensor storage")
	}
	// Empty batch keeps its width.
	tt.FromRows(nil, 5)
	if tt.Rows != 0 || tt.Cols != 5 {
		t.Fatalf("empty FromRows: %dx%d", tt.Rows, tt.Cols)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	want := []float64{21, 42, 63}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

// TestParallelGemmRace hammers the parallel kernel path from many goroutines
// sharing read-only A and B with distinct C buffers — the exact pattern the
// nn layers produce when many streams' models train concurrently. Run
// under -race (make check does) to verify the fan-out is data-race free.
func TestParallelGemmRace(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randTensor(rng, 80, 80)
	b := randTensor(rng, 80, 80)
	want := NewTensor(80, 80)
	RefGemm(want, a, b)
	done := make(chan *Tensor, 8)
	for g := 0; g < 8; g++ {
		go func() {
			c := NewTensor(80, 80)
			for iter := 0; iter < 10; iter++ {
				Gemm(c, a, b)
				GemmTA(c, a, b)
				GemmTB(c, a, b)
				Gemm(c, a, b)
			}
			done <- c
		}()
	}
	for g := 0; g < 8; g++ {
		tensorsClose(t, <-done, want, 1e-9, "concurrent Gemm")
	}
}
