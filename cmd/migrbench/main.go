// Command migrbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	migrbench -exp all
//	migrbench -exp fig3 -qps 16,64,256,1024,4096
//	migrbench -exp fig4a|fig4b|fig4c|fig5|fig6|table4
//	migrbench -exp migros|latency
//	migrbench -exp cutover
//	migrbench -exp tenancy -sessions 250,500,1000,2000
//	migrbench -exp pagechan
//	migrbench -exp drain -drainpar 1,2,4,8
//	migrbench -exp ablation-keytable|ablation-rkey
//
// Output is a textual rendition of each table/figure: the same rows or
// series the paper reports, produced by the same workloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/runc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experiment is one -exp name: the banner it prints and the function
// that writes its rows.
type experiment struct {
	name, title string
	fn          func(out io.Writer) error
}

// run is main over explicit arguments and streams, so the smoke tests
// can drive it. It returns the exit code: 0 every selected experiment
// ran, 1 one failed, 2 the command line was wrong.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("migrbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	drainpar := intList{1, 2, 4, 8}
	fs.Var(&drainpar, "drainpar", "comma-separated Drain.MaxParallel values for the drain sweep")
	sessions := intList{250, 500, 1000, 2000}
	fs.Var(&sessions, "sessions", "comma-separated tenant session counts for the tenancy sweep")
	qps := intList{16, 64, 256, 1024}
	fs.Var(&qps, "qps", "comma-separated QP counts for fig3/fig4a/migros")
	sizes := intList{512, 4096, 65536, 524288}
	fs.Var(&sizes, "sizes", "message sizes for fig4b")
	partners := intList{1, 2, 4}
	fs.Var(&partners, "partners", "partner counts for fig4c")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")

	table := []experiment{
		{"fig3", "Figure 3 — blackout breakdown (±pre-setup, sender/receiver)", func(out io.Writer) error {
			rows, err := experiments.Fig3Sweep(qps)
			printRows(out, rows)
			return err
		}},
		{"fig4a", "Figure 4(a) — wait-before-stop vs #QPs", func(out io.Writer) error {
			rows, err := experiments.Fig4a(qps)
			printRows(out, rows)
			return err
		}},
		{"fig4b", "Figure 4(b) — wait-before-stop vs message size", func(out io.Writer) error {
			rows, err := experiments.Fig4b(sizes)
			printRows(out, rows)
			return err
		}},
		{"fig4c", "Figure 4(c) — wait-before-stop vs #partners (one-to-many)", func(out io.Writer) error {
			rows, err := experiments.Fig4c(partners)
			printRows(out, rows)
			return err
		}},
		{"table4", "Table 4 — data-path virtualization overhead", func(out io.Writer) error {
			printRows(out, experiments.Table4())
			return nil
		}},
		{"fig5", "Figure 5 — partner throughput during live migration", func(out io.Writer) error {
			for _, sender := range []bool{true, false} {
				res, err := experiments.Fig5(sender)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, res)
				printSeries(out, res)
			}
			return nil
		}},
		{"fig6", "Figure 6 — RDMA-Hadoop: baseline vs MigrRDMA vs failover", func(out io.Writer) error {
			rows, err := experiments.Fig6Sweep()
			printRows(out, rows)
			return err
		}},
		{"migros", "§6 — MigrOS vs MigrRDMA blackout on the Fig. 3 migration", func(out io.Writer) error {
			rows, err := experiments.MigrOSCompare(qps)
			printRows(out, rows)
			return err
		}},
		{"ablation-keytable", "Ablation — dense key array vs LubeRDMA linked list", func(out io.Writer) error {
			printRows(out, experiments.AblationKeyTable([]int{4, 32, 128, 1024}))
			return nil
		}},
		{"ablation-rkey", "Ablation — remote key cache on/off", func(out io.Writer) error {
			r, err := experiments.AblationRKeyCache(500)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r)
			return nil
		}},
		{"latency", "Per-op latency across a live migration (Fig. 5's per-op view)", func(out io.Writer) error {
			prof, err := experiments.LatencyAcrossMigration()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, prof)
			return nil
		}},
		{"cutover", "Cutover modes — go-back-N vs plug-and-forward", func(out io.Writer) error {
			rows, err := experiments.CutoverComparison([]int{2048, 8192, 32768}, []int{1, 2}, 50)
			if err != nil {
				return err
			}
			printRows(out, rows)
			return nil
		}},
		{"tenancy", "Tenancy — migrating thousands of tenant sessions (both cutover modes)", func(out io.Writer) error {
			rows, err := experiments.TenancySweep(sessions)
			if err != nil {
				return err
			}
			printRows(out, rows)
			return nil
		}},
		{"pagechan", "Transfer pipeline — monolithic vs pipelined page channel", func(out io.Writer) error {
			rows, err := experiments.PageChanComparison([]int{2048, 8192, 32768}, 2, 400)
			if err != nil {
				return err
			}
			printRows(out, rows)
			// The consolidation scale point: 2000 tenant sessions with a
			// churning session table, both transfer modes. The rig draws
			// no fault, so the rows do not depend on the seed.
			for _, mode := range []runc.TransferMode{runc.TransferMonolithic, runc.TransferPipelined} {
				row, err := experiments.RunTenancyTransferSeeded(runc.CutoverPlugForward, mode, 2000, 71)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%s  transfer=%-12s finalwire=%d\n", row, mode, row.FinalWire)
			}
			return nil
		}},
		{"drain", "Rack drain — 32-host evacuation on the two-tier fabric", func(out io.Writer) error {
			rows, err := experiments.DrainSweep(drainpar)
			if err != nil {
				return err
			}
			printRows(out, rows)
			return nil
		}},
	}
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	exp := fs.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := table
	if *exp != "all" {
		selected = nil
		for _, e := range table {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(errOut, "unknown experiment %q; valid: all, %s\n", *exp, strings.Join(names, ", "))
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(errOut, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errOut, "memprofile: %v\n", err)
			}
		}()
	}

	for _, e := range selected {
		fmt.Fprintf(out, "\n════ %s ════\n", e.title)
		start := time.Now()
		if err := e.fn(out); err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", e.title, err)
			return 1
		}
		fmt.Fprintf(out, "(completed in %v wall time)\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// intList is a flag holding comma-separated integers.
type intList []int

func (l *intList) String() string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint([]int(*l)), "[]"), " ", ",")
}

func (l *intList) Set(csv string) error {
	*l = nil
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad integer %q", f)
		}
		*l = append(*l, n)
	}
	return nil
}

func printRows[R any](out io.Writer, rows []R) {
	for _, r := range rows {
		fmt.Fprintln(out, r)
	}
}

// printSeries renders the 5 ms throughput timeline as a sparkline-ish
// text series around the migration window.
func printSeries(out io.Writer, res experiments.Fig5Result) {
	from := res.MigStart - 50*time.Millisecond
	to := res.MigEnd + 50*time.Millisecond
	for _, s := range res.Samples {
		if s.T < from || s.T > to {
			continue
		}
		bar := int(s.Gbps / 2)
		if bar > 50 {
			bar = 50
		}
		marks := ""
		if s.T >= res.MigStart && s.T <= res.MigEnd {
			marks = " *migration*"
		}
		fmt.Fprintf(out, "  t=%8v %6.1f Gbps |%s%s\n", s.T.Round(time.Millisecond), s.Gbps, strings.Repeat("#", bar), marks)
	}
}
