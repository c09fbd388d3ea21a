package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs the way Python's statistics.quantiles(xs, n=4) does
// (the exclusive method), so that spreads agree with the ones the
// acceptance check computes. One value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j) // outside [0,1] at the ends, as in Python
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// series collects, for each workload and metric, the values of every
// run in a file. Declared metrics and info share one namespace.
type series map[string]map[string][]float64

func readRecords(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	dec := json.NewDecoder(f)
	for {
		var res result
		if err := dec.Decode(&res); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for _, vals := range []map[string]value{res.Metrics, res.Info} {
			for k, v := range vals {
				out[res.Workload][k] = append(out[res.Workload][k], v.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// verdict judges how B's median moved against A's. worse is the share
// of A's median by which B is worse (negative when better); spread is
// the distance between A's quartiles as a share of A's median.
func verdict(m metric, worse, spread float64) string {
	switch {
	case m.Bound == 0:
		return "-"
	case worse > m.Bound && worse > spread:
		return "worse"
	case spread > m.Bound:
		// A's own runs differ by more than the bound, so a move
		// inside the bound could not have been seen.
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one line per workload and metric present in both
// files and returns the exit code: 1 when any gated metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareSeries(w, a, b)
}

func compareSeries(w io.Writer, a, b series) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-34s %14s %14s %9s %9s  %s\n", "workload", "metric", "median A", "median B", "change", "spread A", "verdict")
	for _, wl := range workloads {
		names := make([]string, 0, len(a[wl.name]))
		for k := range a[wl.name] {
			if len(b[wl.name][k]) > 0 {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			m, declared := metricByName(k)
			q1, medA, q3 := quartiles(a[wl.name][k])
			_, medB, _ := quartiles(b[wl.name][k])
			if medA == 0 && medB == 0 && !declared {
				continue
			}
			var change, spread float64
			if medA != 0 {
				change = (medB - medA) / medA
				spread = (q3 - q1) / medA
			} else if medB != 0 {
				change = 1
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			v := verdict(m, worse, spread)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-34s %14.6g %14.6g %+8.2f%% %8.2f%%  %s\n", wl.name, k, medA, medB, 100*change, 100*spread, v)
		}
	}
	return code
}
