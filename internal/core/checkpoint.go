package core

import (
	"cmp"
	"slices"
	"time"

	"migrrdma/internal/verbs"
)

// Checkpoint cost model: walking the indirection layer's records and
// serializing them through the driver interface is cheap but not free;
// DumpRDMA grows with the number of resources (Fig. 3).
const (
	dumpBaseCost      = 150 * time.Microsecond
	dumpPerRecordCost = 1500 * time.Nanosecond
)

// Checkpoint snapshots the indirection layer's state for transfer. With
// final=false it is the pre-copy pre-dump (Fig. 2b ①'): the complete
// roadmap, remembered so the final dump can ship only the difference.
// With final=true it is the stop-and-copy dump (⑤'): records created
// since the pre-dump, identifiers destroyed since, and refreshed per-QP
// virtualization metadata.
func (s *Session) Checkpoint(final bool) *Blob {
	b := &Blob{Proc: s.Proc.Name, Final: final}
	live := s.ind.live()
	if !final {
		s.ind.predumped = make(map[verbs.ObjID]bool, len(live))
		for _, r := range live {
			s.ind.predumped[r.Ev.ID] = true
			b.Records = append(b.Records, RecordDTO{Ev: r.Ev, Modifies: r.Modifies})
		}
	} else {
		seen := make(map[verbs.ObjID]bool, len(live))
		for _, r := range live {
			seen[r.Ev.ID] = true
			if !s.ind.predumped[r.Ev.ID] {
				b.Records = append(b.Records, RecordDTO{Ev: r.Ev, Modifies: r.Modifies})
			}
		}
		for id := range s.ind.predumped {
			if !seen[id] {
				b.Destroyed = append(b.Destroyed, id)
			}
		}
		slices.Sort(b.Destroyed)
	}
	for _, qp := range s.sortedQPs() {
		nSent, nRecv := qp.v.Counters()
		b.QPs = append(b.QPs, QPMeta{
			ID:         qp.id,
			VQPN:       qp.vqpn,
			Type:       qp.typ,
			State:      qp.v.State(),
			RemoteNode: qp.v.RemoteNode(),
			RemoteQPN:  qp.v.RemoteQPN(),
			NSent:      nSent,
			NRecvDone:  nRecv,
		})
	}
	for _, mr := range s.mrs {
		b.MRs = append(b.MRs, MRMeta{ID: mr.id, VLKey: mr.vlkey, VRKey: mr.vrkey})
	}
	slices.SortFunc(b.MRs, func(a, b MRMeta) int { return cmp.Compare(a.ID, b.ID) })
	s.Sched().Sleep(dumpBaseCost + time.Duration(len(b.Records)+len(b.QPs))*dumpPerRecordCost)
	return b
}
