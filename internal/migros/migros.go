// Package migros models the MigrOS baseline (Planeta et al., ATC'21)
// for the §6 comparison. MigrOS modifies the RNIC: communication states
// are extracted from and injected into the NIC through a TCP_REPAIR-like
// hardware interface, and QPs are moved through a new STOP state.
//
// The paper argues that the waiting and replaying steps of
// stop-and-copy cost the same for both systems — their bottleneck is
// draining in-flight bytes at link rate — while the state-transfer step
// differs: MigrOS pays per-QP hardware extraction, STOP transitions and
// injection, whereas MigrRDMA's metadata already lives in host memory
// and rides the existing memory migration path.
//
// MigrRDMA's side is measured: the simulated Fig. 3 migration at the
// same QP count. MigrOS has no hardware prototype (the original work
// validates on SoftRoCE, which the paper rejects for performance
// comparison), so its hardware interface is the one part of §6 that
// stays a model: the per-QP costs below, added to MigrRDMA's measured
// breakdown.
package migros

import (
	"time"

	"migrrdma/internal/fabric"
)

// MigrOS's hardware interface costs, per QP.
const (
	extractPerQP = 40 * time.Microsecond // read transport state out of the NIC
	stopPerQP    = 25 * time.Microsecond // QP → STOP state transition
	injectPerQP  = 60 * time.Microsecond // write transport state into the NIC
	// stateBytesPerQP is the serialized transport state that joins the
	// image transfer.
	stateBytesPerQP = 512
)

// Breakdown is the stop-and-copy decomposition of §6, steps 1 and 2.
// Step 3, replaying what applications posted but the wire never
// carried, costs the same on both systems, and after thaw it shares the
// wire with live traffic, so no run measures it as a window.
type Breakdown struct {
	// Wait is step 1: reaching a safe state (wait-before-stop for
	// MigrRDMA, natural packet drain for MigrOS).
	Wait time.Duration
	// Transfer is step 2: moving and restoring all states — the service
	// blackout.
	Transfer time.Duration
}

// Total is the communication blackout.
func (b Breakdown) Total() time.Duration { return b.Wait + b.Transfer }

// MigrOS returns MigrOS's breakdown for a migration of qps QPs that
// MigrRDMA completed as m. Step 1 costs the same: both systems drain
// the same backlog. Step 2 additionally extracts, stops and injects
// each QP's NIC state, and the state bytes cross the same link.
func MigrOS(m Breakdown, qps int) Breakdown {
	state := int64(qps) * stateBytesPerQP * 8 * int64(time.Second) / fabric.LinkRate
	return Breakdown{
		Wait: m.Wait,
		Transfer: m.Transfer + time.Duration(qps)*(extractPerQP+stopPerQP+injectPerQP) +
			time.Duration(state),
	}
}
