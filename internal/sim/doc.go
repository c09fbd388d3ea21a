// Package sim provides a cooperative, deterministic, virtual-time
// scheduler that the whole MigrRDMA simulation runs on.
//
// Every simulated activity (an application thread, an RNIC processing
// engine, the CRIU migration tool, a link delivering packets) runs as a
// managed proc spawned with Scheduler.Go. Exactly one proc executes at a
// time; when a proc parks the scheduler picks the next runnable proc, and
// when no proc is runnable it advances the virtual clock to the earliest
// pending timer. Execution is therefore fully deterministic: the same
// program produces the same interleaving and the same virtual-time
// measurements on every run.
//
// A proc parks in one of three ways: on the clock (Sleep), behind the
// other runnable procs (Yield), or on a condition variable (Cond.Wait and
// Cond.WaitTimeout; Cond behaves like sync.Cond, WaitGroup like
// sync.WaitGroup). A queue between procs is a plain slice or ring plus a
// Cond to wait on, so simulated components read like ordinary concurrent
// Go code.
//
// Two rules keep the model sound:
//
//  1. Managed procs must block only through sim primitives. A proc is a
//     coroutine of the goroutine that called Run: parking switches
//     straight back to the scheduler loop, and nothing else runs
//     meanwhile, so blocking on a native channel or mutex from inside a
//     managed proc blocks the loop itself, for good if what would
//     release it is another proc.
//  2. Inline timer callbacks registered with AfterFunc, and tasks made
//     with NewTask, run on the scheduler loop and must not block; they
//     exist so that high-rate events (per-packet deliveries, a NIC
//     engine draining its receive queue) do not pay a proc spawn or a
//     switch each.
//
// Timers fire in the order of their deadlines and, at one deadline, in
// the order they were armed (AfterFunc, AfterFuncArg and Sleep all take
// the next place in that order). A Timer handle cancels its timer until
// it has fired; a cancelled timer neither fires nor holds the clock. A
// proc waiting for an event parks on a Cond the event broadcasts and
// holds no timer meanwhile. A Lane carries timers that are armed in
// deadline order (a port's deliveries, a device's retransmission
// timers, all armed with one delay): each entry takes its place in the
// order when it is armed, as AfterFuncArg would give it, but the whole
// lane takes one heap entry, so the heap does not grow with the frames
// in flight or the QPs.
//
// A scheduler that is done with is closed: Close unwinds every proc
// still parked — its deferred calls run — and drops the run queue and
// the timers, so that a finished simulation holds no goroutine and pins
// nothing it ran on. Whoever builds a scheduler defers its Close.
//
// How a proc may end, besides returning:
//
//   - A panic in a proc does not stay in the proc. It comes out of the
//     Run call that dispatched it, on the caller's goroutine, as
//     `sim: proc "<name>" panicked: <value>` followed by the stack of
//     the proc (not of the scheduler loop). The scheduler does not carry
//     on; it can still be closed.
//   - runtime.Goexit in a proc — t.Fatal or t.FailNow in a proc of a
//     test — ends the goroutine that called Run or RunFor, after that
//     goroutine's own deferred calls have run, so a deferred Close still
//     happens and a test fails with its message instead of hanging.
//   - Close unwinds a parked proc by a panic with a private value that
//     only the proc's worker recovers. A proc that recovers everything
//     itself swallows it and just finishes; one that recovers in a loop
//     and blocks again is unwound again, every time it blocks.
package sim
