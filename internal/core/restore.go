package core

import (
	"cmp"
	"fmt"
	"slices"

	"migrrdma/internal/criu"
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/verbs"
)

// Staged is an in-progress RDMA restoration on the migration
// destination: the MigrRDMA Host Lib's working state. It maps the
// roadmap's original object IDs to freshly created resources on the
// destination device; the IDs are stable across migrations so the same
// process can migrate again later.
type Staged struct {
	ctx  *verbs.Context
	blob *Blob

	pds   map[verbs.ObjID]*verbs.PD
	cqs   map[verbs.ObjID]*verbs.CQ
	chans map[verbs.ObjID]*verbs.CompChannel
	srqs  map[verbs.ObjID]*verbs.SRQ
	mrs   map[verbs.ObjID]*verbs.MR
	mws   map[verbs.ObjID]*verbs.MW
	dms   map[verbs.ObjID]*verbs.DM
	qps   map[verbs.ObjID]*verbs.QP

	// qpByVQPN lets partner connect-new requests find staged QPs.
	qpByVQPN map[uint32]*verbs.QP
	// qpnPairs maps each adopted QP's old (source-side) physical QPN to
	// its restored destination QPN. The plug-and-forward cutover derives
	// its forwarding rule and tunnel translation table from it; filled
	// by bind, cleared by unbind.
	qpnPairs map[uint32]uint32
	// qpMeta keeps per-QP restore metadata by object ID.
	qpMeta map[verbs.ObjID]QPMeta

	// deferred holds MR records whose registration waits for full
	// memory restoration (registered during the pre-copy on the source,
	// §3.2 "we restore the conflicting MRs at the end of stop-and-copy").
	deferred []RecordDTO

	// Old (source-side) objects captured at bind time for reclamation.
	srcCtx  *verbs.Context
	srcPDs  []*verbs.PD
	srcMRs  []*verbs.MR
	srcCQs  []*verbs.CQ
	srcSRQs []*verbs.SRQ
	srcQPs  []*verbs.QP

	// bound marks a completed bind; undo holds, in bind order, the
	// closures that put each wrapper and translation-table entry back the
	// way it was. unbind runs them in reverse when a migration aborts
	// after adoption.
	bound bool
	undo  []func()

	// aborted makes abort idempotent (the runc compensation chain and the
	// daemon's abort handler may both reach the same slot).
	aborted bool
}

// RestoreContextFor is ibv_restore_context (Table 3): it opens the
// destination device for the restoring process and replays the roadmap.
// img may be nil when there is no partial restore (the no-presetup
// baseline); MR memory must then already be at its original addresses.
// The staged restore joins migID's record under the process name, so
// concurrent inbound migrations on one host stay separable for partner
// connect-new requests.
func (d *Daemon) RestoreContextFor(r *criu.Restore, img *criu.Image, b *Blob, migID string) (*Staged, error) {
	st := &Staged{
		ctx:      verbs.OpenDevice(d.dev, r.AS),
		blob:     b,
		pds:      make(map[verbs.ObjID]*verbs.PD),
		cqs:      make(map[verbs.ObjID]*verbs.CQ),
		chans:    make(map[verbs.ObjID]*verbs.CompChannel),
		srqs:     make(map[verbs.ObjID]*verbs.SRQ),
		mrs:      make(map[verbs.ObjID]*verbs.MR),
		mws:      make(map[verbs.ObjID]*verbs.MW),
		dms:      make(map[verbs.ObjID]*verbs.DM),
		qps:      make(map[verbs.ObjID]*verbs.QP),
		qpByVQPN: make(map[uint32]*verbs.QP),
		qpMeta:   make(map[verbs.ObjID]QPMeta),
	}
	// Fresh objects must never reuse roadmap IDs.
	var maxID verbs.ObjID
	for _, rec := range b.Records {
		if rec.Ev.ID > maxID {
			maxID = rec.Ev.ID
		}
	}
	st.ctx.SetNextObjID(maxID + 1)
	for _, m := range b.QPs {
		st.qpMeta[m.ID] = m
	}
	// Claim MR-backing memory at original addresses before anything
	// else maps (§3.2 "restore the MR's memory structures before the
	// memory restoration starts"). The roadmap replay itself runs later
	// via Replay, overlapping memory pre-copy.
	if img != nil {
		if err := st.claimMRMemory(r, img, b.Records); err != nil {
			return nil, err
		}
	}
	m := d.record(migID)
	if m.staged == nil {
		m.staged = make(map[string]*Staged)
	}
	m.staged[b.Proc] = st
	return st, nil
}

// unstage takes st off migID's record, if it is still there.
func (d *Daemon) unstage(migID string, st *Staged) {
	if m, ok := d.migs[migID]; ok && m.staged[st.blob.Proc] == st {
		delete(m.staged, st.blob.Proc)
		d.settle(migID)
	}
}

// Replay re-executes the checkpointed roadmap's control-path calls on
// the destination device: the Table-3 restore entry points. RC QPs stop
// at INIT; partner notification connects them. With pre-setup it runs
// during partial restore; the no-presetup baseline pays the same cost
// inside the blackout.
func (st *Staged) Replay() error {
	for _, rec := range st.blob.Records {
		if err := st.replayOne(rec); err != nil {
			return err
		}
	}
	return nil
}

// claimMRMemory maps every VMA containing a to-be-registered MR at its
// original virtual address and restores its pages.
func (st *Staged) claimMRMemory(r *criu.Restore, img *criu.Image, recs []RecordDTO) error {
	for _, rec := range recs {
		if rec.Ev.Kind != verbs.EvRegMR {
			continue
		}
		for _, vrec := range img.VMAs {
			if vrec.Device {
				continue
			}
			if rec.Ev.Addr < vrec.Start+mem.Addr(vrec.Len) && vrec.Start < rec.Ev.Addr+mem.Addr(rec.Ev.Len) {
				if err := r.MapAtOriginal(img, vrec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replayOne restores a single resource.
func (st *Staged) replayOne(rec RecordDTO) error {
	ev := rec.Ev
	switch ev.Kind {
	case verbs.EvAllocPD:
		st.pds[ev.ID] = st.ctx.AllocPD() // ibv_restore_pd

	case verbs.EvCreateCompChannel:
		st.chans[ev.ID] = st.ctx.CreateCompChannel()

	case verbs.EvCreateCQ: // ibv_restore_cq
		st.cqs[ev.ID] = st.ctx.CreateCQ(ev.CQCap, st.chans[ev.Channel])

	case verbs.EvCreateSRQ:
		st.srqs[ev.ID] = st.ctx.CreateSRQ()

	case verbs.EvRegMR:
		pd, ok := st.pds[ev.PD]
		if !ok {
			return fmt.Errorf("core: restore MR %d: missing PD %d", ev.ID, ev.PD)
		}
		if !st.ctx.Mem().Mapped(ev.Addr, ev.Len) {
			// The backing memory is not at its original address yet
			// (registered on the source during pre-copy, or the
			// no-presetup baseline before full restore): defer to
			// stop-and-copy (§3.2).
			st.deferred = append(st.deferred, rec)
			return nil
		}
		mr, err := st.ctx.RegMR(pd, ev.Addr, ev.Len, ev.Access)
		if err != nil {
			return fmt.Errorf("core: restore MR %d: %w", ev.ID, err)
		}
		st.mrs[ev.ID] = mr

	case verbs.EvBindMW:
		mr, ok := st.mrs[ev.MR]
		if !ok {
			// Parent MR deferred: defer the window too.
			st.deferred = append(st.deferred, rec)
			return nil
		}
		mw, err := st.ctx.BindMW(mr, ev.Addr, ev.Len, ev.Access)
		if err != nil {
			return fmt.Errorf("core: restore MW %d: %w", ev.ID, err)
		}
		st.mws[ev.ID] = mw

	case verbs.EvAllocDM:
		dm, err := st.ctx.AllocDM(ev.Len)
		if err != nil {
			return fmt.Errorf("core: restore DM %d: %w", ev.ID, err)
		}
		// §3.3: re-allocate on the new NIC, then mremap to the original
		// virtual address.
		if err := dm.Remap(ev.Addr); err != nil {
			return fmt.Errorf("core: restore DM %d remap: %w", ev.ID, err)
		}
		st.dms[ev.ID] = dm

	case verbs.EvCreateQP: // ibv_restore_qp
		pd, ok := st.pds[ev.PD]
		if !ok {
			return fmt.Errorf("core: restore QP %d: missing PD %d", ev.ID, ev.PD)
		}
		scq, rcq := st.cqs[ev.SendCQ], st.cqs[ev.RecvCQ]
		if scq == nil || rcq == nil {
			return fmt.Errorf("core: restore QP %d: missing CQs", ev.ID)
		}
		qp := st.ctx.CreateQP(pd, ev.QPType, scq, rcq, st.srqs[ev.SRQ], ev.Caps)
		st.qps[ev.ID] = qp
		meta := st.qpMeta[ev.ID]
		if meta.VQPN != 0 {
			st.qpByVQPN[meta.VQPN] = qp
		}
		// Advance the state machine: RC stops at INIT (the partner
		// exchange completes the connection); UD replays to its final
		// state directly.
		if meta.State >= rnic.StateInit {
			if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
				return err
			}
		}
		if ev.QPType == rnic.UD && meta.State >= rnic.StateRTR {
			if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR}); err != nil {
				return err
			}
			if meta.State >= rnic.StateRTS {
				if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// applyFinal merges the stop-and-copy difference blob: resources
// created on the source during pre-copy are restored now (deferred MRs
// first — their memory reached its original address when CRIU
// finalized), and resources destroyed during pre-copy are released.
func (st *Staged) applyFinal(final *Blob) error {
	for _, m := range final.QPs {
		st.qpMeta[m.ID] = m
	}
	deferred := st.deferred
	st.deferred = nil
	for _, rec := range deferred {
		if err := st.replayOne(rec); err != nil {
			return err
		}
	}
	for _, rec := range final.Records {
		if err := st.replayOne(rec); err != nil {
			return err
		}
	}
	if len(st.deferred) > 0 {
		return fmt.Errorf("core: %d MRs still unmappable after full restore", len(st.deferred))
	}
	for _, id := range final.Destroyed {
		st.destroyStaged(id)
	}
	return nil
}

// destroyStaged releases a staged resource that the source destroyed
// during pre-copy.
func (st *Staged) destroyStaged(id verbs.ObjID) {
	if mr, ok := st.mrs[id]; ok {
		mr.Dereg()
		delete(st.mrs, id)
	}
	if qp, ok := st.qps[id]; ok {
		qp.Destroy()
		delete(st.qps, id)
	}
	if cq, ok := st.cqs[id]; ok {
		cq.Destroy()
		delete(st.cqs, id)
	}
	if srq, ok := st.srqs[id]; ok {
		srq.Destroy()
		delete(st.srqs, id)
	}
	if mw, ok := st.mws[id]; ok {
		mw.Dealloc()
		delete(st.mws, id)
	}
	if dm, ok := st.dms[id]; ok {
		dm.Free()
		delete(st.dms, id)
	}
	if pd, ok := st.pds[id]; ok {
		pd.Dealloc()
		delete(st.pds, id)
	}
}

// bind swaps a session's wrappers onto the staged destination objects
// and updates the shared translation tables — "map the new RDMA
// resources into the restored processes" (Fig. 2b ⑥'). It validates
// that every wrapper has a staged counterpart before mutating anything,
// so a failed bind leaves the session untouched; a successful bind
// records undo closures so unbind can roll the swap back if the
// migration aborts later.
func (st *Staged) bind(s *Session) error {
	for _, err := range []error{
		unstaged("PD", s.pds, st.pds), unstaged("MR", s.mrs, st.mrs),
		unstaged("MW", s.mws, st.mws), unstaged("DM", s.dms, st.dms),
		unstaged("SRQ", s.srqs, st.srqs), unstaged("QP", s.qps, st.qps),
	} {
		if err != nil {
			return err
		}
	}
	for _, cq := range s.cqs {
		if _, ok := st.cqs[cq.id]; !ok {
			return fmt.Errorf("core: bind: CQ %d not staged", cq.id)
		}
	}

	// The old context must stop feeding the roadmap: destroying the
	// source-side resources during reclamation is not an application
	// action and must not delete the creation records a future
	// migration replays.
	st.srcCtx = s.ctx
	st.srcCtx.SetRecorder(nil)
	st.ctx.SetRecorder(s.ind)
	s.ctx = st.ctx
	for id, pd := range s.pds {
		pd, old := pd, pd.v
		st.srcPDs = append(st.srcPDs, old)
		pd.v = st.pds[id]
		st.undo = append(st.undo, func() { pd.v = old })
	}
	for id, mr := range s.mrs {
		mr, old := mr, mr.v
		nv := st.mrs[id]
		st.srcMRs = append(st.srcMRs, old)
		mr.v = nv
		s.lkeys.update(mr.vlkey, nv.LKey())
		s.rkeys.update(mr.vrkey, nv.RKey())
		st.undo = append(st.undo, func() {
			mr.v = old
			s.lkeys.update(mr.vlkey, old.LKey())
			s.rkeys.update(mr.vrkey, old.RKey())
		})
	}
	for id, mw := range s.mws {
		mw, old := mw, mw.v
		nv := st.mws[id]
		mw.v = nv
		s.rkeys.update(mw.vrkey, nv.RKey())
		st.undo = append(st.undo, func() {
			mw.v = old
			s.rkeys.update(mw.vrkey, old.RKey())
		})
	}
	for id, dm := range s.dms {
		dm, old := dm, dm.v
		dm.v = st.dms[id]
		st.undo = append(st.undo, func() { dm.v = old })
	}
	for _, cq := range s.cqs {
		cq, old := cq, cq.v
		st.srcCQs = append(st.srcCQs, old)
		attach(&cq.v, st.cqs[cq.id], &cq.wake)
		st.undo = append(st.undo, func() { attach(&cq.v, old, &cq.wake) })
	}
	for id, srq := range s.srqs {
		srq, old := srq, srq.v
		st.srcSRQs = append(st.srcSRQs, old)
		srq.v = st.srqs[id]
		st.undo = append(st.undo, func() { srq.v = old })
	}
	for id, ch := range s.chanMap {
		if nv, ok := st.chans[id]; ok {
			ch, old := ch, ch.v
			attach(&ch.v, nv, &ch.wake)
			st.undo = append(st.undo, func() { attach(&ch.v, old, &ch.wake) })
		}
	}
	if st.qpnPairs == nil {
		st.qpnPairs = make(map[uint32]uint32)
	}
	for id, qp := range s.qps {
		qp, old := qp, qp.v
		oldPhys := old.QPN()
		st.srcQPs = append(st.srcQPs, old)
		qp.v = st.qps[id]
		st.qpnPairs[oldPhys] = st.qps[id].QPN()
		// Completions already harvested into fake CQs carry the old
		// physical QPN; the temporary table translates them (§3.4).
		qp.sendCQ.tempQPN[oldPhys] = qp.vqpn
		qp.recvCQ.tempQPN[oldPhys] = qp.vqpn
		st.undo = append(st.undo, func() {
			qp.v = old
			// Drop the fake-CQ translation entries: the old QP is live
			// again and its completions need no remapping.
			delete(qp.sendCQ.tempQPN, oldPhys)
			delete(qp.recvCQ.tempQPN, oldPhys)
		})
	}
	st.bound = true
	return nil
}

// attach swaps a guest-library handle's device object *dev (a CQ or a
// completion channel) for v: the old object stops broadcasting the
// handle's cond and v starts, and the handle's waiters wake to look at v.
func attach[T interface{ SetWake(*sim.Cond) }](dev *T, v T, wake *sim.Cond) {
	(*dev).SetWake(nil)
	*dev = v
	v.SetWake(wake)
	wake.Broadcast()
}

// unbind reverses bind after an aborted migration: the session's
// wrappers point back at the source-side objects, the translation
// tables translate to them again, and the source context resumes
// feeding the roadmap. The staged objects themselves are released
// separately by abort.
func (st *Staged) unbind(s *Session) {
	if !st.bound {
		return
	}
	st.bound = false
	st.ctx.SetRecorder(nil)
	st.srcCtx.SetRecorder(s.ind)
	s.ctx = st.srcCtx
	for i := len(st.undo) - 1; i >= 0; i-- {
		st.undo[i]()
	}
	st.undo = nil
	st.srcCtx = nil
	st.srcPDs, st.srcMRs, st.srcCQs, st.srcSRQs, st.srcQPs = nil, nil, nil, nil, nil
	st.qpnPairs = nil
}

// abort tears down a staged restore after a failed migration: every
// staged destination resource is destroyed (in reverse dependency
// order, sorted by object ID for determinism); the caller takes it off
// its record (unstage). The staged context's recorder is nil except
// between bind and unbind, so these destructions never touch the
// session's roadmap; callers must unbind first when the staging was
// adopted. abort is idempotent.
func (st *Staged) abort() {
	if st.aborted {
		return
	}
	st.aborted = true
	inOrder(st.mws, (*verbs.MW).Dealloc)
	inOrder(st.mrs, (*verbs.MR).Dereg)
	inOrder(st.qps, (*verbs.QP).Destroy)
	inOrder(st.srqs, (*verbs.SRQ).Destroy)
	inOrder(st.cqs, (*verbs.CQ).Destroy)
	inOrder(st.dms, (*verbs.DM).Free)
	inOrder(st.pds, (*verbs.PD).Dealloc)
	st.pds, st.cqs, st.chans, st.srqs = nil, nil, nil, nil
	st.mrs, st.mws, st.dms, st.qps = nil, nil, nil, nil
	st.qpByVQPN, st.qpMeta, st.deferred = nil, nil, nil
}

// unstaged reports a session object of the given kind with no staged
// counterpart.
func unstaged[A, B any](kind string, have map[verbs.ObjID]A, staged map[verbs.ObjID]B) error {
	for id := range have {
		if _, ok := staged[id]; !ok {
			return fmt.Errorf("core: bind: %s %d not staged", kind, id)
		}
	}
	return nil
}

// inOrder calls f on m's values in ascending key order.
func inOrder[K cmp.Ordered, V any](m map[K]V, f func(V)) {
	for _, k := range sortedKeys(m) {
		f(m[k])
	}
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
