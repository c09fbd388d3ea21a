package verbs

import (
	"encoding/binary"
	"sync/atomic"

	"migrrdma/internal/mem"
)

// This file models the library-managed queue memory of a real verbs
// stack: the driver maps SQ/RQ work-queue rings and CQ entry rings into
// the process's address space, the library writes a WQE slot on every
// post, and the device DMA-writes CQE slots on every completion.
//
// Two paper-relevant behaviours fall out of this model:
//
//   - Every QP adds mappings to the process, so CRIU's dump cost grows
//     with the number of QPs ("DumpOthers", Fig. 3, §5.2).
//   - Posting and completing work dirties ring pages continuously, so
//     RDMA-active processes never reach a clean pre-copy state.
//
// These rings are the paper's Table-1 first category: local states
// hidden from applications, restored by the live migration tool and
// re-pointed by the driver after restoration.

// wqeSlotSize is the in-memory size of one work-queue element.
const wqeSlotSize = 64

// ringHintSpacing separates the ring arenas of different contexts so a
// restored context's fresh rings never collide with image-restored ring
// mappings of the original context.
const (
	ringHintBase    = mem.Addr(0x7f00_0000_0000)
	ringHintSpacing = mem.Addr(0x10_0000_0000)
	// dmArenaHint places on-chip memory mappings below the ring arenas.
	dmArenaHint = mem.Addr(0x7e00_0000_0000)
)

// nextCtxInstance numbers contexts for ring arena placement. It is a
// process-wide atomic, not per-simulation: independent simulations run
// on concurrent goroutines (sim.RunIndexed: parallel chaos sweeps),
// and the arena hint must stay tear-free. The hint's value
// never feeds observable behavior — MapAnywhere treats it as a
// placement preference inside a per-process address space — so
// cross-run counter drift cannot perturb trace hashes.
var nextCtxInstance atomic.Uint64

// ringArena returns the base hint for a fresh context's rings.
func ringArena() mem.Addr {
	return ringHintBase + mem.Addr(nextCtxInstance.Add(1))*ringHintSpacing
}

// mapRing maps a library ring of n slots and returns its base address.
func (c *Context) mapRing(name string, slots int) (mem.Addr, error) {
	v, err := c.as.MapAnywhere(c.ringHint, uint64(slots*wqeSlotSize), name)
	if err != nil {
		return 0, err
	}
	return v.Start, nil
}

// writeWQE stamps one work-queue slot, dirtying the ring page the way a
// real library's WQE write does.
func (c *Context) writeWQE(base mem.Addr, seq, depth int, wrID uint64) {
	var slot [wqeSlotSize]byte
	binary.LittleEndian.PutUint64(slot[:], wrID)
	_ = c.as.Write(base+mem.Addr((seq%depth)*wqeSlotSize), slot[:])
}
