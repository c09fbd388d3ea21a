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
	"os"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

func main() {
	statsMode := false
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		statsMode = true
		os.Args = append(os.Args[:1], os.Args[2:]...)
	}
	qps := flag.Int("qps", 8, "number of RC queue pairs")
	msg := flag.Int("msg", 4096, "message size in bytes")
	depth := flag.Int("depth", 16, "queue depth per QP")
	verb := flag.String("verb", "write", "traffic verb: send, write, read")
	side := flag.String("side", "sender", "which side migrates: sender or receiver")
	noPresetup := flag.Bool("no-presetup", false, "disable RDMA pre-setup (paper's baseline)")
	loss := flag.Float64("loss", 0, "packet loss probability during migration")
	flag.Parse()

	var op rnic.Opcode
	switch *verb {
	case "send":
		op = rnic.OpSend
	case "write":
		op = rnic.OpWrite
	case "read":
		op = rnic.OpRead
	default:
		fmt.Fprintf(os.Stderr, "unknown verb %q\n", *verb)
		os.Exit(2)
	}

	r := experiments.NewRig(1, "src", "dst", "partner")
	opts := perftest.Options{Verb: op, MsgSize: *msg, QueueDepth: *depth, NumQPs: *qps, Messages: 0}
	var pair *experiments.Pair
	if *side == "sender" {
		pair = r.StartPair("src", "partner", opts)
	} else {
		pair = r.StartPair("partner", "src", opts)
	}

	var rep *runc.Report
	var err error
	r.CL.Sched.Go("driver", func() {
		pair.Client.WaitReady()
		fmt.Printf("perftest running: %d QPs, %d B %s, depth %d\n", *qps, *msg, *verb, *depth)
		r.CL.Sched.Sleep(5 * time.Millisecond)
		if *loss > 0 {
			r.CL.Net.SetLoss("src", *loss)
			r.CL.Net.SetLoss("partner", *loss)
		}
		mopts := runc.DefaultMigrateOptions()
		mopts.PreSetup = !*noPresetup
		cont := pair.ClientCont
		if *side != "sender" {
			cont = pair.ServerCont
		}
		fmt.Printf("migrating the %s container src → dst (pre-setup: %v)...\n", *side, mopts.PreSetup)
		rep, err = r.Migrate(cont, "src", "dst", mopts)
		if *loss > 0 {
			r.CL.Net.SetLoss("src", 0)
			r.CL.Net.SetLoss("partner", 0)
		}
		r.CL.Sched.Sleep(5 * time.Millisecond)
		pair.Client.Stop()
		pair.Client.Wait()
		pair.Server.Stop()
	})
	r.CL.Sched.RunFor(10 * time.Minute)
	r.Close() // the reports below read state the procs no longer touch
	if err != nil {
		fmt.Fprintf(os.Stderr, "migration failed: %v\n", err)
		os.Exit(1)
	}
	if rep == nil {
		fmt.Fprintln(os.Stderr, "migration did not complete")
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("phase report:")
	fmt.Printf("  DumpRDMA     %12v\n", rep.DumpRDMA.Round(time.Microsecond))
	fmt.Printf("  DumpOthers   %12v\n", rep.DumpOthers.Round(time.Microsecond))
	fmt.Printf("  Transfer     %12v\n", rep.Transfer.Round(time.Microsecond))
	fmt.Printf("  RestoreRDMA  %12v\n", rep.RestoreRDMA.Round(time.Microsecond))
	fmt.Printf("  FullRestore  %12v\n", rep.FullRestore.Round(time.Microsecond))
	fmt.Printf("  ───────────\n")
	fmt.Printf("  blackout     %12v   (service %v, communication %v)\n",
		rep.Blackout().Round(time.Microsecond), rep.ServiceBlackout.Round(time.Microsecond),
		rep.CommBlackout.Round(time.Microsecond))
	fmt.Printf("  wait-before-stop %v (timed out: %v, in-flight %d B)\n",
		rep.WBS.Elapsed.Round(time.Microsecond), rep.WBS.TimedOut, rep.WBS.InflightBytes)
	fmt.Printf("  pre-copy iterations %d, pages transferred %d\n", rep.PreCopyIterations, rep.PagesTransferred)
	fmt.Println()
	fmt.Printf("workload: %d messages completed, %d errors\n",
		pair.Client.Stats.Completed, len(pair.Client.Stats.Errors)+len(pair.Server.Stats.Errors))
	for _, e := range pair.Client.Stats.Errors {
		fmt.Printf("  client error: %s\n", e)
	}
	for _, e := range pair.Server.Stats.Errors {
		fmt.Printf("  server error: %s\n", e)
	}
	if statsMode {
		fmt.Println()
		fmt.Println("metrics registry:")
		fmt.Print(r.CL.Metrics.Snapshot().String())
	}
}
