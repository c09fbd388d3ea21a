// Command bench is the repository's one fixed benchmark: eight
// migration workloads measured on two clocks (what the simulated system
// achieves, and what the simulator costs to produce it) plus one probe
// per layer. README.md in this directory is the manual.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1
//	bench -compare A.json B.json
//
// A run measures one workload, one simulation at a time on one P, so
// that on a small machine the numbers measure the program and not the
// Go scheduler; -workload all runs the eight one after another.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

var processStart = time.Now()

// header says where and how a run was made.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	// WallS is the wall time of the whole run, set-up and probes included.
	WallS float64 `json:"wall_s"`
}

// commit returns the revision the binary was built from, when the
// build could see one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	var (
		name       = flag.String("workload", "all", "workload to run, or all")
		seed       = flag.Int64("seed", 1, "seed the per-rep seeds derive from")
		seconds    = flag.Float64("seconds", 10, "host seconds to measure each workload for")
		trace      = flag.Int("trace", 0, "1: traced run (per-layer metrics); 0: untraced run (end-to-end metrics)")
		reps       = flag.Int("reps", 0, "fix the number of timed reps per workload instead of measuring for -seconds")
		out        = flag.String("out", "", "append one JSON record per workload to this file, for -compare")
		traceOut   = flag.String("trace-out", "", "write the spans of a traced run here as Chrome trace-event JSON")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the timed reps here (one workload per run)")
		compare    = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	)
	flag.Parse()
	// The simulator runs one goroutine at a time and hands control from
	// proc to proc. On more than one P each handoff can become a wake-up
	// of another thread, whose cost depends on what else the machine is
	// doing: measured here, bw-send16 took 1.36 s a rep on two Ps against
	// 0.90 s on one, with three to five times the run-to-run spread. One
	// P measures the program; set GOMAXPROCS to measure the other thing.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be positive and -trace 0 or 1")
	}
	if *name == "all" {
		if *cpuprofile != "" || *traceOut != "" {
			fatal("-cpuprofile and -trace-out take one workload")
		}
		os.Exit(runEach())
	}
	wi, w := workloadByName(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal("unknown workload %q (have all, %s)", *name, strings.Join(names, ", "))
	}

	r := &runner{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), reps: *reps}
	var res result
	if *trace == 1 {
		if *cpuprofile != "" {
			fatal("-cpuprofile takes an untraced run")
		}
		r.trace = newTracer()
		// The probes share six tenths of the workload's measuring time,
		// which growing to size rounds up to about the whole of it; a
		// fixed rep count asks for their minimum size. They run first,
		// before the workload's reps have grown the heap under them.
		budget := r.seconds * 6 / 10
		if r.reps > 0 {
			budget = 0
		}
		layer := runProbes(budget, r.trace)
		res = r.tracedRun(wi, w)
		for k, v := range layer {
			m, _ := metricByName(k)
			res.Metrics[k] = value{v, m.Unit}
		}
		if *traceOut != "" {
			if err := r.trace.write(*traceOut); err != nil {
				fatal("%v", err)
			}
		}
	} else if w.blocks > 0 && *reps == 0 && *cpuprofile == "" {
		res = r.blockRun(w)
	} else {
		r.cpuprofile = *cpuprofile
		res = r.endToEndRun(wi, w)
	}

	res.Header = header{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *seconds, Trace: *trace, WallS: time.Since(processStart).Seconds(),
	}
	hj, _ := json.Marshal(res.Header)
	fmt.Printf("run %s\n", hj)
	printResult(os.Stdout, &res)
	if *out != "" {
		if err := appendRecord(*out, &res); err != nil {
			fatal("%v", err)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// startCPUProfile profiles until the returned function is called.
func startCPUProfile(path string) (stop func()) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal("%v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
	}
}

// runEach runs every workload in a process of its own, one after
// another, with the flags this process was given, and returns the worst
// exit code. One process would be simpler, but every rep leaves its
// parked procs and the rig they pin behind: by the eighth workload the
// heap held 3 GB and drain-xrack took twice its time.
func runEach() int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = max(code, 1)
		}
	}
	return code
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints one workload: a table for the reader, then one
// line of JSON holding exactly the run's declared metrics.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\nworkload %s: %d timed reps, %d of %d migrations failed\n", res.Workload, res.Reps, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	table := func(title string, vals map[string]value) {
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-8s %-34s %16.6g %s\n", title, k, vals[k].Value, vals[k].Unit)
		}
	}
	table("metric", res.Metrics)
	table("info", res.Info)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendRecord adds the result to path as one line of JSON.
func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
