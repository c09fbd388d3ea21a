// Command migrctl drives a single live migration on the simulated
// testbed and prints the runc-style phase report — the equivalent of
// the paper's workflow of calling runc CheckpointRDMA / PartialRestore /
// FullRestore against a running container (§4, Table 2).
//
// Usage:
//
//	migrctl [-qps 8] [-msg 4096] [-depth 16] [-verb write|send|read]
//	        [-side sender|receiver] [-no-presetup] [-loss 0.01]
//	migrctl stats [same flags]
//
// The stats form runs the same scenario and then dumps the cluster-wide
// metrics registry (the simulated ethtool/driver counters) instead of
// only the phase report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// verbs are the -verb values.
var verbs = map[string]rnic.Opcode{"send": rnic.OpSend, "write": rnic.OpWrite, "read": rnic.OpRead}

// run is main over explicit arguments and streams, so the smoke tests
// can drive it. It returns the exit code: 0 the migration completed,
// 1 it failed or hung, 2 the command line was wrong.
func run(args []string, out, errOut io.Writer) int {
	statsMode := len(args) > 0 && args[0] == "stats"
	if statsMode {
		args = args[1:]
	}
	fs := flag.NewFlagSet("migrctl", flag.ContinueOnError)
	fs.SetOutput(errOut)
	qps := fs.Int("qps", 8, "number of RC queue pairs")
	msg := fs.Int("msg", 4096, "message size in bytes")
	depth := fs.Int("depth", 16, "queue depth per QP")
	verb := fs.String("verb", "write", "traffic verb: send, write, read")
	side := fs.String("side", "sender", "which side migrates: sender or receiver")
	noPresetup := fs.Bool("no-presetup", false, "disable RDMA pre-setup (paper's baseline)")
	loss := fs.Float64("loss", 0, "packet loss probability during migration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	op, ok := verbs[*verb]
	if !ok {
		fmt.Fprintf(errOut, "unknown -verb %q; valid: send, write, read\n", *verb)
		return 2
	}
	if *side != "sender" && *side != "receiver" {
		fmt.Fprintf(errOut, "unknown -side %q; valid: sender, receiver\n", *side)
		return 2
	}

	r := experiments.NewRig(1, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{Verb: op, MsgSize: *msg, QueueDepth: *depth, NumQPs: *qps, Messages: 0}
	// The migrating container holds the sender (client) or the receiver
	// (server).
	var pair *experiments.Pair
	var cont *runc.Container
	if *side == "sender" {
		pair = r.StartPair("src", "partner", opts)
		cont = pair.ClientCont
	} else {
		pair = r.StartPair("partner", "src", opts)
		cont = pair.ServerCont
	}

	var rep *runc.Report
	err := r.Run(experiments.Horizon, func() (err error) {
		pair.Client.WaitReady()
		fmt.Fprintf(out, "perftest running: %d QPs, %d B %s, depth %d\n", *qps, *msg, *verb, *depth)
		r.CL.Sched.Sleep(5 * time.Millisecond)
		if *loss > 0 {
			r.CL.Net.SetLoss("src", *loss)
			r.CL.Net.SetLoss("partner", *loss)
		}
		mopts := runc.DefaultMigrateOptions()
		mopts.PreSetup = !*noPresetup
		fmt.Fprintf(out, "migrating the %s container src → dst (pre-setup: %v)...\n", *side, mopts.PreSetup)
		if rep, err = r.Migrate(cont, "src", "dst", mopts); err != nil {
			return err
		}
		if *loss > 0 {
			r.CL.Net.SetLoss("src", 0)
			r.CL.Net.SetLoss("partner", 0)
		}
		r.CL.Sched.Sleep(5 * time.Millisecond)
		pair.Stop()
		return nil
	})
	if err != nil {
		fmt.Fprintf(errOut, "migration failed: %v\n", err)
		return 1
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "phase report:")
	fmt.Fprintf(out, "  DumpRDMA     %12v\n", rep.DumpRDMA.Round(time.Microsecond))
	fmt.Fprintf(out, "  DumpOthers   %12v\n", rep.DumpOthers.Round(time.Microsecond))
	fmt.Fprintf(out, "  Transfer     %12v\n", rep.Transfer.Round(time.Microsecond))
	fmt.Fprintf(out, "  RestoreRDMA  %12v\n", rep.RestoreRDMA.Round(time.Microsecond))
	fmt.Fprintf(out, "  FullRestore  %12v\n", rep.FullRestore.Round(time.Microsecond))
	fmt.Fprintf(out, "  ───────────\n")
	fmt.Fprintf(out, "  blackout     %12v   (service %v, communication %v)\n",
		rep.Blackout().Round(time.Microsecond), rep.ServiceBlackout.Round(time.Microsecond),
		rep.CommBlackout.Round(time.Microsecond))
	fmt.Fprintf(out, "  wait-before-stop %v (timed out: %v, in-flight %d B)\n",
		rep.WBS.Elapsed.Round(time.Microsecond), rep.WBS.TimedOut, rep.WBS.InflightBytes)
	fmt.Fprintf(out, "  pre-copy iterations %d, pages transferred %d\n", rep.PreCopyIterations, rep.PagesTransferred)
	fmt.Fprintln(out)
	errs := pair.Errors()
	fmt.Fprintf(out, "workload: %d messages completed, %d errors\n", pair.Client.Stats.Completed, len(errs))
	for _, e := range errs {
		fmt.Fprintf(out, "  %s\n", e)
	}
	if statsMode {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "metrics registry:")
		fmt.Fprint(out, r.CL.Metrics.Snapshot().String())
	}
	return 0
}
