//go:build race

package sim

// RaceEnabled reports whether the binary was built with the race
// detector. The shard-group engine falls back to sequential window
// execution under -race (see DESIGN.md §10): the barrier protocol is
// race-free by construction, but the detector's happens-before
// tracking across thousands of proc coroutines multiplies both memory
// and runtime, and a sequential pass exercises the byte-identical
// event order anyway — so the race job spends its budget on the
// workload's own races instead of the worker pool's.
const RaceEnabled = true
