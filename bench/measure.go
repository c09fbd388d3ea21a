package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"time"

	"migrrdma/internal/sim"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record of one workload run, as -out writes it and
// -compare reads it. Metrics holds the declared metrics of the run's
// mode (end to end when untraced, per layer when traced); Info holds
// what else the run learned and does not gate.
type result struct {
	Header    header           `json:"header"`
	Workload  string           `json:"workload"`
	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Info      map[string]value `json:"info,omitempty"`
	Failures  []string         `json:"failures,omitempty"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and which percentile that is; with fewer than
// eleven samples it is the maximum. xs is sorted in place.
func tail(xs []float64) (v, pct float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return xs[n-1], 100
	}
	return xs[n-11], 100 * float64(n-10) / float64(n)
}

// repSeed is the seed of rep i of workload wi.
func repSeed(seed int64, wi, i int) int64 { return sim.DeriveSeed(seed, wi<<20+i) }

// runner measures one workload, one simulation at a time.
type runner struct {
	seed    int64
	seconds time.Duration
	// reps, when positive, fixes the number of timed reps, ignores
	// seconds and simReps, and caps the warm-up reps.
	reps  int
	trace *tracer
	// cpuprofile, when set, is where the CPU profile of the timed reps goes.
	cpuprofile string
}

// tally accumulates what the reps of one workload returned.
type tally struct {
	w         *workload
	vals      map[string][]float64
	attempted int
	failed    int
	failures  []string
}

// add books one rep. Values are kept for the first keep reps only.
func (t *tally) add(r row, err error, keep bool) {
	t.attempted += t.w.ops
	if err != nil {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, fmt.Sprintf("%s: %v", t.w.name, err))
		}
		// A rep that failed as a whole fails every migration in it.
		if r.failed == 0 {
			r.failed = t.w.ops
		}
	}
	t.failed += r.failed
	if err == nil && keep {
		for k, v := range r.vals {
			t.vals[k] = append(t.vals[k], v)
		}
	}
}

// rowMetrics reduces the kept rows to one value per name.
func (t *tally) rowMetrics() map[string]float64 {
	out := make(map[string]float64, len(t.vals)+2)
	if t.w.tailAcrossReps {
		if b := t.vals["blackout_ms"]; len(b) > 0 {
			out["blackout_tail_ms"], _ = tail(b)
		}
	}
	for k, xs := range t.vals {
		out[k] = median(xs)
	}
	out["failed_ratio"] = float64(t.failed) / float64(max(t.attempted, 1))
	return out
}

// result starts the record of a run of reps timed reps.
func (t *tally) result(reps int) result {
	return result{
		Workload: t.w.name, Reps: reps,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Correct: len(t.failures) == 0 && t.failed == 0,
		Metrics: map[string]value{}, Info: map[string]value{},
	}
}

// warmUp runs the untimed reps. For a repeatable workload it also runs
// the first seed a second time and requires an identical row.
func (r *runner) warmUp(wi int, w *workload, t *tally) {
	var first row
	warm := w.warm
	if r.reps > 0 {
		warm = min(warm, r.reps)
	}
	for i := 0; i < warm; i++ {
		seed := repSeed(r.seed, wi, i)
		if w.warmRun != nil {
			if err := w.warmRun(seed); err != nil {
				t.failures = append(t.failures, fmt.Sprintf("%s warm-up: %v", w.name, err))
			}
			continue
		}
		row, err := w.run(seed)
		if err != nil {
			t.failures = append(t.failures, fmt.Sprintf("%s warm-up: %v", w.name, err))
		}
		if i == 0 {
			first = row
		}
	}
	if w.repeatable {
		again, _ := w.run(repSeed(r.seed, wi, 0))
		if !reflect.DeepEqual(first.vals, again.vals) {
			t.failures = append(t.failures, fmt.Sprintf("%s: first seed run twice gave %v then %v", w.name, first.vals, again.vals))
		}
	}
}

// endToEndRun is the untraced measurement of one workload.
func (r *runner) endToEndRun(wi int, w *workload) result {
	t := &tally{w: w, vals: map[string][]float64{}}
	r.warmUp(wi, w, t)
	setup := time.Since(processStart)

	runtime.GC()
	if r.cpuprofile != "" {
		defer startCPUProfile(r.cpuprofile)()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var host []float64
	start := time.Now()
	for i := 0; ; i++ {
		if r.reps > 0 {
			if i >= r.reps {
				break
			}
		} else if i >= w.simReps && time.Since(start) >= r.seconds {
			break
		}
		t0 := time.Now()
		row, err := w.run(repSeed(r.seed, wi, w.warm+i))
		host = append(host, time.Since(t0).Seconds())
		t.add(row, err, r.reps > 0 || i < w.simReps)
	}
	runtime.ReadMemStats(&after)

	reps := float64(len(host))
	rows := t.rowMetrics()
	res := t.result(len(host))
	// A host tail is information only, and only where there are enough
	// reps for one: it does not repeat within a tenth on a shared machine.
	if len(host) >= 100 {
		p, pct := tail(host)
		res.Info["host_tail_s"] = value{p, "s"}
		res.Info["host_tail_pct"] = value{pct, "%"}
	}
	res.Info["heap_end_mb"] = value{float64(after.HeapAlloc) / 1e6, "MB"}
	measured := map[string]float64{
		"setup_s":          setup.Seconds(),
		"host_s":           median(host),
		"allocs_per_rep":   float64(after.Mallocs-before.Mallocs) / reps,
		"alloc_mb_per_rep": float64(after.TotalAlloc-before.TotalAlloc) / reps / 1e6,
	}
	for _, m := range endToEnd {
		v, ok := measured[m.Name]
		if !ok {
			v = rows[m.Name]
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	for _, m := range perLayer {
		if v, ok := rows[m.Name]; ok {
			res.Info[m.Name] = value{v, m.Unit}
		}
	}
	return res
}

// blockRun measures a workload as w.blocks runs of w.simReps timed reps,
// each in a fresh process with a seed of its own, and merges them.
func (r *runner) blockRun(w *workload) result {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	var blocks []result
	for k := 0; k < w.blocks; k++ {
		// The block writes its record to a pipe it inherits as
		// descriptor 3; a record is far smaller than a pipe holds.
		pr, pw, err := os.Pipe()
		if err != nil {
			fatal("%v", err)
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(sim.DeriveSeed(r.seed, k)),
			"-reps", fmt.Sprint(w.simReps), "-out", "/dev/fd/3")
		cmd.ExtraFiles = []*os.File{pw}
		cmd.Stderr = os.Stderr
		runErr := cmd.Run() // exit code 1 still comes with a record
		pw.Close()
		var res result
		if err := json.NewDecoder(pr).Decode(&res); err != nil {
			fatal("%s block %d: %v (%v)", w.name, k, err, runErr)
		}
		pr.Close()
		blocks = append(blocks, res)
	}
	return mergeBlocks(blocks)
}

// mergeBlocks sums the counts of the blocks and takes the median of
// every value.
func mergeBlocks(blocks []result) result {
	out := result{Workload: blocks[0].Workload, Correct: true, Metrics: map[string]value{}, Info: map[string]value{}}
	for _, b := range blocks {
		out.Reps += b.Reps
		out.Attempted += b.Attempted
		out.Failed += b.Failed
		out.Failures = append(out.Failures, b.Failures...)
		out.Correct = out.Correct && b.Correct
	}
	merge := func(pick func(*result) map[string]value) {
		for name, v := range pick(&blocks[0]) {
			xs := make([]float64, len(blocks))
			for i := range blocks {
				xs[i] = pick(&blocks[i])[name].Value
			}
			pick(&out)[name] = value{median(xs), v.Unit}
		}
	}
	merge(func(r *result) map[string]value { return r.Metrics })
	merge(func(r *result) map[string]value { return r.Info })
	out.Info["blocks"] = value{float64(len(blocks)), "count"}
	return out
}

// tracedRun times traceReps reps without spans and traceReps reps with
// them. The row fields of the traced reps become per-layer
// metrics; the probe metrics are merged in by the caller.
func (r *runner) tracedRun(wi int, w *workload) result {
	t := &tally{w: w, vals: map[string][]float64{}}
	r.warmUp(wi, w, t)
	n := w.traceReps
	if r.reps > 0 {
		n = r.reps
	}
	// Plain and traced reps alternate, so that drift in the process (the
	// heap grows with every rep) falls on both alike.
	var plain, traced []float64
	for i := 0; i < n; i++ {
		seed := repSeed(r.seed, wi, w.warm+i)
		t0 := time.Now()
		_, err := w.run(seed)
		plain = append(plain, time.Since(t0).Seconds())
		if err != nil {
			t.failures = append(t.failures, fmt.Sprintf("%s: %v", w.name, err))
		}
		root := r.trace.begin(fmt.Sprintf("%s rep %d seed %d", w.name, i, seed), -1)
		t0 = time.Now()
		row, err := w.run(seed)
		traced = append(traced, time.Since(t0).Seconds())
		r.trace.end(root)
		r.trace.phases(root, row.phases)
		t.add(row, err, true)
	}

	rows := t.rowMetrics()
	rows["trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	res := t.result(n)
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{rows[m.Name], m.Unit}
	}
	res.Info["blackout_ms"] = value{rows["blackout_ms"], uSimMS}
	res.Info["traced_rep_s"] = value{median(traced), "s"}
	res.Info["untraced_rep_s"] = value{median(plain), "s"}
	return res
}
