package main

import (
	"bytes"
	"testing"
)

// inputs encodes the first n requests of every sender of w, as sent.
func inputs(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	var all, buf []byte
	for i := 0; i < w.senders; i++ {
		sc := newSchedule(w, i, seed)
		for k := 0; k < n; k++ {
			r, err := sc.pop()
			if err != nil {
				t.Fatal(err)
			}
			if buf, err = encode(w, r, "", buf); err != nil {
				t.Fatal(err)
			}
			all = append(all, buf...)
		}
	}
	return all
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		// Long enough to cross a simulator pass, so pass seeding is covered.
		n := 140 * (1 + int(w.readsPerWrite))
		a, b := inputs(t, w, 7, n), inputs(t, w, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two runs", w.name)
		}
		if c := inputs(t, w, 8, n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w.name)
		}
	}
}

// The read share per labeled batch is exactly readsPerWrite, and every
// stream's labeled batches come in order.
func TestReadMix(t *testing.T) {
	for _, w := range workloads {
		f := newFeed(w, 0, 1)
		reads, writes := 0, 0
		for writes < 200 {
			r, err := f.next()
			if err != nil {
				t.Fatal(err)
			}
			if !r.labeled {
				reads++
				continue
			}
			if r.batch != writes {
				t.Fatalf("%s: labeled batch %d arrived as batch %d", w.name, writes, r.batch)
			}
			writes++
		}
		if want := int(200 * w.readsPerWrite); reads != want {
			t.Errorf("%s: %d reads for 200 writes, want %d", w.name, reads, want)
		}
	}
}
