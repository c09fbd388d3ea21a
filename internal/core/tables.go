// Package core implements MigrRDMA: the software indirection layer that
// makes RDMA live-migratable on commodity RNICs.
//
// The package is organised the way the paper's prototype is (§3, §4):
//
//   - Indirection layer (indirection.go) — driver-side bookkeeping of the
//     minimal state needed to rebuild RDMA communications ("roadmap" of
//     control-path calls), plus the translation tables it shares with
//     the library.
//   - Guest library (session.go, qp.go, cq.go, wbs.go) — the MigrRDMA
//     Lib loaded into each application: data-path key/QPN translation,
//     WR interception during suspension, fake CQs, wait-before-stop.
//   - Host library + plugin (plugin.go, restore.go) — the restore APIs
//     of Table 3 and the CRIU plugin gluing them into the container
//     live-migration workflow of Fig. 2(b).
//   - Daemon (daemon.go) — the per-host control endpoint: partner
//     notification, suspension fan-out, rkey/QPN fetch service.
package core

import "fmt"

// qpnTable is the physical→virtual QP number translation table of §3.3.
//
// The paper sizes it as a flat array of 2^24 entries indexed by the
// physical QPN, shared read-only with every process's library. A 64 MiB
// array per device is wasteful in a simulation that hosts many devices
// in one test binary, so the table is two-level with 256-entry (1 KB)
// leaves — lookups remain O(1) with one extra indirection and the
// dense-array semantics are unchanged. The directory is a slice that
// reaches only as far as the highest leaf in use: a device hands out
// QPNs from the bottom of the space (from 0x100, 27 apart), so a leaf
// covers about ten of a device's QPs, and a daemon with a handful of
// QPs pays for a few pointers and one or two leaves — not for a 16 KB
// leaf, most of whose entries no QP of the run ever takes.
type qpnTable struct {
	leaves []*[qpnLeafSz]uint32
}

const (
	qpnSpace   = 1 << 24
	qpnLeafSz  = 1 << 8
	qpnInvalid = ^uint32(0)
)

// set maps physical QPN p to virtual QPN v.
func (t *qpnTable) set(p, v uint32) {
	if p >= qpnSpace {
		panic(fmt.Sprintf("core: physical QPN %#x out of 24-bit range", p))
	}
	i := int(p / qpnLeafSz)
	if i >= len(t.leaves) {
		t.leaves = append(t.leaves, make([]*[qpnLeafSz]uint32, i+1-len(t.leaves))...)
	}
	leaf := t.leaves[i]
	if leaf == nil {
		leaf = new([qpnLeafSz]uint32)
		for j := range leaf {
			leaf[j] = qpnInvalid
		}
		t.leaves[i] = leaf
	}
	leaf[p%qpnLeafSz] = v
}

// leaf returns the leaf holding p, or nil when none does.
func (t *qpnTable) leaf(p uint32) *[qpnLeafSz]uint32 {
	if i := p / qpnLeafSz; i < uint32(len(t.leaves)) {
		return t.leaves[i]
	}
	return nil
}

// lookup translates physical QPN p; ok is false for unmapped entries.
func (t *qpnTable) lookup(p uint32) (uint32, bool) {
	leaf := t.leaf(p)
	if leaf == nil {
		return 0, false
	}
	v := leaf[p%qpnLeafSz]
	return v, v != qpnInvalid
}

// clear removes the mapping for physical QPN p.
func (t *qpnTable) clear(p uint32) {
	if leaf := t.leaf(p); leaf != nil {
		leaf[p%qpnLeafSz] = qpnInvalid
	}
}

// keyTable is the per-process dense virtual-key table of §3.3: virtual
// lkeys/rkeys are assigned one by one, so the virtual value is a direct
// array index and translation is a single bounds-checked load. The paper
// contrasts this with LubeRDMA's linked list (§6); the ablation
// benchmarks compare both.
type keyTable struct {
	phys []uint32 // index = virtual key - keyBase
}

// keyBase offsets virtual keys so that zero (an uninitialized key) is
// never valid.
const keyBase = 1

// assign appends a physical key and returns its dense virtual key.
func (t *keyTable) assign(phys uint32) uint32 {
	t.phys = append(t.phys, phys)
	return uint32(len(t.phys)-1) + keyBase
}

// lookup translates a virtual key to its physical value.
func (t *keyTable) lookup(virt uint32) (uint32, bool) {
	i := virt - keyBase
	if i >= uint32(len(t.phys)) {
		return 0, false
	}
	return t.phys[i], true
}

// update rebinds an existing virtual key to a new physical value (after
// the resource is recreated on the migration destination).
func (t *keyTable) update(virt, phys uint32) {
	i := virt - keyBase
	if i >= uint32(len(t.phys)) {
		panic("core: update of unassigned virtual key")
	}
	t.phys[i] = phys
}

// len reports the number of assigned keys.
func (t *keyTable) len() int { return len(t.phys) }
