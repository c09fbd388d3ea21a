// Package sim provides a cooperative, deterministic, virtual-time
// scheduler that the whole MigrRDMA simulation runs on.
//
// Every simulated activity (an application thread, an RNIC processing
// engine, the CRIU migration tool, a link delivering packets) runs as a
// managed proc spawned with Scheduler.Go. Exactly one proc executes at a
// time; when a proc blocks (Sleep, channel operation, condition wait) the
// scheduler picks the next runnable proc, and when no proc is runnable it
// advances the virtual clock to the earliest pending timer. Execution is
// therefore fully deterministic: the same program produces the same
// interleaving and the same virtual-time measurements on every run.
//
// The package deliberately mirrors the shape of the standard library
// (Chan behaves like a Go channel, Cond like sync.Cond) so that simulated
// components read like ordinary concurrent Go code.
//
// Two rules keep the model sound:
//
//  1. Managed procs must block only through sim primitives. Blocking on a
//     native channel or mutex from inside a managed proc would stall the
//     scheduler (it waits for the running proc to park).
//  2. Inline timer callbacks registered with AfterFunc, and tasks made
//     with NewTask, run on the scheduler loop and must not block; they
//     exist so that high-rate events (per-packet deliveries, a NIC
//     engine draining its receive queue) do not pay a goroutine spawn
//     or handoff each.
package sim
