package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesProgram keeps BENCHMARK.json and the tables in
// this package the same list.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := d.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := d.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q is declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// lastLine parses the JSON object printResult ends with.
func lastLine(t *testing.T, res *result) map[string]value {
	t.Helper()
	var buf bytes.Buffer
	printResult(&buf, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]value
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("last line of %s is not the result object: %v", res.Workload, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Fatalf("last line of %s lacks correct, attempted or failed", res.Workload)
	}
	return got.Metrics
}

// requireExactly fails unless printed holds every metric of want with
// its unit and nothing else.
func requireExactly(t *testing.T, workload string, printed map[string]value, want []metric) {
	t.Helper()
	for _, m := range want {
		v, ok := printed[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s is not printed", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s printed with unit %q, declared %q", workload, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s is %v", workload, m.Name, v.Value)
		}
	}
	for name := range printed {
		if !contains(want, name) {
			t.Errorf("%s: undeclared metric %s is printed", workload, name)
		}
	}
}

func contains(list []metric, name string) bool {
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// smokeWorkloads cover both cutovers and the pipelined transfer in a
// few host milliseconds each.
var smokeWorkloads = []string{"cutover-gbn", "cutover-plug", "pagehog-pipe"}

// TestSmoke runs one rep of the cheap workloads untraced and traced,
// with every probe at its minimum size, and checks that what is printed
// is exactly what is declared.
func TestSmoke(t *testing.T) {
	start := time.Now()
	layer := runProbes(0, nil)
	for _, name := range smokeWorkloads {
		wi, w := workloadByName(name)
		if w == nil {
			t.Fatalf("no workload %s", name)
		}
		r := &runner{seed: 1, seconds: time.Second, reps: 1}
		res := r.endToEndRun(wi, w)
		if !res.Correct {
			t.Errorf("%s untraced: %v", name, res.Failures)
		}
		printed := lastLine(t, &res)
		requireExactly(t, name, printed, endToEnd)
		for _, m := range endToEnd {
			if printed[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want above 0", name, m.Name, printed[m.Name].Value)
			}
		}

		r = &runner{seed: 1, seconds: time.Second, reps: 1, trace: newTracer()}
		res = r.tracedRun(wi, w)
		if !res.Correct {
			t.Errorf("%s traced: %v", name, res.Failures)
		}
		for k, v := range layer {
			m, _ := metricByName(k)
			res.Metrics[k] = value{v, m.Unit}
		}
		requireExactly(t, name, lastLine(t, &res), perLayer)
		if n := len(r.trace.spans); n < 2 {
			t.Errorf("%s traced: %d spans, want the rep and its phases", name, n)
		}
	}
	for name, v := range layer {
		// At minimum size an allocation count may round to nothing.
		if v < 0 || (v == 0 && !strings.Contains(name, "allocs")) {
			t.Errorf("probe metric %s is %v, want above 0", name, v)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke took %v, want under 10s", d)
	}
}

func TestMergeBlocks(t *testing.T) {
	block := func(host float64, failed int) result {
		return result{
			Workload: "cutover-gbn", Reps: 500, Attempted: 500, Failed: failed, Correct: failed == 0,
			Metrics: map[string]value{"host_s": {host, "s"}},
			Info:    map[string]value{"wire_bytes": {870774, "bytes"}},
		}
	}
	got := mergeBlocks([]result{block(3, 0), block(9, 2), block(4, 0)})
	if got.Reps != 1500 || got.Attempted != 1500 || got.Failed != 2 || got.Correct {
		t.Errorf("counts: %+v, want the sums and correct false", got)
	}
	if v := got.Metrics["host_s"]; v.Value != 4 || v.Unit != "s" {
		t.Errorf("host_s = %+v, want the median 4 s", v)
	}
	if got.Info["wire_bytes"].Value != 870774 || got.Info["blocks"].Value != 3 {
		t.Errorf("info = %+v", got.Info)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for the same inputs.
	for _, c := range []struct{ xs, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1.5, 9}, []float64{1.25, 3, 6.5}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{7}, []float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 490 || pct != 98 {
		t.Errorf("tail of 1..500 = %v at p%v, want 490 at p98 (ten samples beyond)", v, pct)
	}
	if v, pct := tail([]float64{3, 9, 1}); v != 9 || pct != 100 {
		t.Errorf("tail of three samples = %v at p%v, want the maximum", v, pct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(host ...float64) series {
		return series{"bw-send16": {"host_s": host, "blackout_ms": {4.5}, "sim.dispatch_ns": {400}}}
	}
	steady := mk(1.00, 1.01, 0.99, 1.00, 1.02)
	for _, c := range []struct {
		name string
		a, b series
		want string
		code int
	}{
		{"same", steady, steady, "ok", 0},
		{"slower past the bound", steady, mk(1.4, 1.41, 1.39), "worse", 1},
		{"baseline too noisy to tell", mk(0.7, 1.0, 1.3, 0.6, 1.4), mk(1.05, 1.04, 1.06), "unresolved", 0},
	} {
		var buf bytes.Buffer
		code := compareSeries(&buf, c.a, c.b)
		var line string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, " host_s ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.want) || code != c.code {
			t.Errorf("%s: exit %d, line %q; want exit %d and verdict %s", c.name, code, line, c.code, c.want)
		}
		if !strings.Contains(buf.String(), "sim.dispatch_ns") {
			t.Errorf("%s: ungated metric missing from\n%s", c.name, buf.String())
		}
	}
	// A simulated result must repeat exactly: any move past its bound is
	// worse, however small.
	b := mk(1.00, 1.01, 0.99)
	b["bw-send16"]["blackout_ms"] = []float64{4.6}
	var buf bytes.Buffer
	if code := compareSeries(&buf, steady, b); code != 1 {
		t.Errorf("blackout 4.5 to 4.6 sim_ms passed:\n%s", buf.String())
	}
}
