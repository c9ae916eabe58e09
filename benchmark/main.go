// Command freeway-bench is the repository's benchmark. It boots the real
// freeway-serve binary (and freeway-router where the workload needs it),
// drives one workload against it from at most two sender connections,
// checks every answer against an in-process replay of the same commit, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run prints the per-layer ones. Run it through run.sh,
// which builds the binaries first:
//
//	bash benchmark/run.sh --workload drift-train --seed 1 --seconds 10 --trace 0
//
// NOTES.md describes the workloads, the metrics and the layer each should
// move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: drift-train | read-mostly | small-json-router")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "0 measures end to end with tracing off; 1 runs the traced per-layer run")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the freeway-serve and freeway-router binaries")
		variant = flag.String("variant", "", "re-measurement only: unfused | f32 | int8-infer | json | http-binary")
	)
	flag.Parse()
	// The benchmark's own garbage collections would show up as client-side
	// latency; its heap is small, so collect less often.
	debug.SetGCPercent(400)
	if err := run(os.Stdout, *name, *variant, *seed, *seconds, *trace, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "freeway-bench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name, variant string, seed int64, seconds float64, trace int, bin string) error {
	w, err := findWorkload(name, variant)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	printHost(out, w, seed, trace)
	var rep report
	switch trace {
	case 0:
		rep, err = endToEnd(out, bin, w, seed, seconds)
	case 1:
		rep, err = traced(out, bin, w, seed, seconds)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(out, "metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printHost records what the numbers were measured on.
func printHost(out io.Writer, w *workload, seed int64, trace int) {
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), sourceID())
	load := "closed loop"
	if w.rate > 0 {
		load = fmt.Sprintf("open loop at %g req/s", w.rate)
	}
	fmt.Fprintf(out, "run workload=%s seed=%d trace=%d senders=%d %s\n", w.name, seed, trace, w.senders, load)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code under test: the git commit when the checkout is
// a repository, otherwise a hash over the Go sources and module files.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if sha, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return "commit:" + strings.TrimSpace(string(sha))
			}
		}
		return "commit:" + ref
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// counts tallies requests by outcome.
type counts struct {
	sent, succeeded, failed, refused int
}

func (c counts) plus(d counts) counts {
	return counts{c.sent + d.sent, c.succeeded + d.succeeded, c.failed + d.failed, c.refused + d.refused}
}

func tally(ss []*sender) counts {
	var c counts
	for _, s := range ss {
		for _, o := range s.outs {
			c.sent++
			switch {
			case o.ok:
				c.succeeded++
			case o.refused:
				c.refused++
			default:
				c.failed++
			}
		}
	}
	return c
}

// endToEnd runs the workload with tracing off and reports the end-to-end
// metrics, after the replay gate has checked every labeled answer.
func endToEnd(out io.Writer, bin string, w *workload, seed int64, seconds float64) (report, error) {
	res, err := measureQuiet(out, bin, w, seed, seconds)
	if err != nil {
		return report{}, err
	}
	t0 := time.Now()
	gate, err := replayGate(w, seed, res.senders)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "phases measured=%.3gs replay_gate=%.3gs\n", res.elapsed.Seconds(), time.Since(t0).Seconds())
	return e2eReport(out, w, res, gate)
}

// Host contention: on a shared host the hypervisor can take part of the
// vCPUs' time from a busy run ("steal"), which slows it by about that share
// and preempts requests for milliseconds, whatever the code does. A run
// whose measured window lost more than maxSteal is measured again from a
// fresh boot on the same inputs, up to maxAttempts times while the attempts
// fit in attemptBudget, and the attempt that lost least is reported.
// Requests of discarded attempts still count as attempted, and their
// failures as failed.
const (
	maxSteal      = 0.01
	maxAttempts   = 2
	attemptBudget = 50 * time.Second
)

func measureQuiet(out io.Writer, bin string, w *workload, seed int64, seconds float64) (*runResult, error) {
	start := time.Now()
	var best *runResult
	var prior counts
	var steals []float64
	for len(steals) < maxAttempts {
		t0 := time.Now()
		res, err := measure(bin, w, seed, seconds)
		if err != nil {
			return nil, err
		}
		steals = append(steals, res.steal)
		switch {
		case best == nil:
			best = res
		case res.steal < best.steal:
			prior = prior.plus(tally(best.senders))
			best = res
		default:
			prior = prior.plus(tally(res.senders))
		}
		if best.steal <= maxSteal || time.Since(start)+time.Since(t0) > attemptBudget {
			break
		}
	}
	best.prior = prior
	fmt.Fprintf(out, "attempts steal=%.3f (repeated above %.0f%% stolen; the least stolen is reported)\n", steals, 100*maxSteal)
	return best, nil
}

// e2eReport prints the run's counts and tails and returns the end-to-end
// metrics.
func e2eReport(out io.Writer, w *workload, res *runResult, gate gateResult) (report, error) {
	var trainRows, inferRows int
	var procLat, inferLat, late []float64
	for _, s := range res.senders {
		for _, o := range s.outs {
			if o.setup || !o.ok {
				continue
			}
			late = append(late, o.lateMS)
			if o.labeled {
				trainRows += o.rows
				procLat = append(procLat, o.latMS)
			} else {
				inferRows += o.rows
				inferLat = append(inferLat, o.latMS)
			}
		}
	}
	var gacc, si []float64
	for _, s := range res.senders {
		for _, st := range s.gstats {
			gacc = append(gacc, st.GAcc)
			si = append(si, st.SI)
		}
	}
	c := tally(res.senders).plus(res.prior)
	failed := c.failed + c.refused + gate.mismatched
	setup := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setup[i] = d.Seconds()
	}
	el := res.elapsed.Seconds()
	// The gated tails are p95: on this shared host p99 moves with the
	// hypervisor's preemptions more than with the code (NOTES.md), so it is
	// printed, not gated.
	proc99, inf99 := summarize(procLat, 99), summarize(inferLat, 99)
	proc, inf := summarize(procLat, 95), summarize(inferLat, 95)

	fmt.Fprintf(out, "requests sent=%d succeeded=%d failed=%d refused=%d replay_checked=%d replay_mismatched=%d\n",
		c.sent, c.succeeded, c.failed, c.refused, gate.checked, gate.mismatched)
	fmt.Fprintf(out, "error_rate %.6g (failed+refused+mismatched over sent)\n", float64(failed)/float64(c.sent))
	fmt.Fprintf(out, "latency process n=%d p50=%.4g ms p%.4g=%.4g ms p%.4g=%.4g ms; infer n=%d p50=%.4g ms p%.4g=%.4g ms p%.4g=%.4g ms\n",
		proc.n, proc.p50, proc.pct, proc.tailMS, proc99.pct, proc99.tailMS,
		inf.n, inf.p50, inf.pct, inf.tailMS, inf99.pct, inf99.tailMS)
	fmt.Fprintf(out, "setup_s runs=%v\n", setup)
	fmt.Fprintf(out, "host cpu steal during the measured window %.1f%% (time the hypervisor gave the vCPUs to others)\n", 100*res.steal)
	if w.rate > 0 {
		lt := summarize(late, 99)
		fmt.Fprintf(out, "generator lateness n=%d p50=%.4g ms p%.4g=%.4g ms max=%.4g ms (arrivals dropped: 0)\n",
			lt.n, lt.p50, lt.pct, lt.tailMS, lt.max)
	}
	for _, d := range gate.statsDiff {
		fmt.Fprintln(out, "replay stats mismatch", d)
	}
	if proc.pct == 0 || inf.pct == 0 {
		return report{}, fmt.Errorf("too few answered requests for a latency tail (process n=%d, infer n=%d)", proc.n, inf.n)
	}

	rep := report{
		Correct:   failed == 0 && len(gate.statsDiff) == 0,
		Attempted: c.sent,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {median(setup), "s"},
			"train_samples_per_s": {float64(trainRows) / el, "1/s"},
			"infer_samples_per_s": {float64(inferRows) / el, "1/s"},
			"process_p50_ms":      {proc.p50, "ms"},
			"process_p95_ms":      {proc.tailMS, "ms"},
			"infer_p50_ms":        {inf.p50, "ms"},
			"infer_p95_ms":        {inf.tailMS, "ms"},
			"g_acc":               {mean(gacc), "ratio"},
			"si":                  {mean(si), "ratio"},
			"success_rate":        {float64(c.sent-failed) / float64(c.sent), "ratio"},
			"server_rss_mb":       {res.rssMB, "MiB"},
		},
	}
	return rep, nil
}
