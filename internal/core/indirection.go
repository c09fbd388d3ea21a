package core

import (
	"fmt"

	"migrrdma/internal/codec"
	"migrrdma/internal/rnic"
	"migrrdma/internal/verbs"
)

// Indirection is the driver-resident indirection layer of one process
// (§3.1): it intercepts every control-path call through the verbs
// Recorder seam and bookkeeps the minimal state needed to rebuild the
// process's RDMA communications elsewhere — the "roadmap of RDMA
// communication establishment" (§3.2).
//
// Destroyed resources have their creation records deleted, so replay
// never allocates resources only to free them again.
type Indirection struct {
	// order lists the live records in creation order. A destroyed
	// record leaves a nil behind (it knows its own slot, so reclaiming
	// a process's resources never searches the list) and the holes are
	// squeezed out once they outnumber the records.
	order []*record
	holes int
	recs  map[verbs.ObjID]*record

	// predumped is the set of records included in the last pre-dump, so
	// FinalDump can emit only the difference (the CheckpointRDMA
	// semantics of Table 2).
	predumped map[verbs.ObjID]bool
}

// record is one live resource's creation event plus its accumulated
// QP state transitions. A QP's usual three (INIT, RTR, RTS) live in
// mods; a fourth spills to the heap. Records are never recycled: a
// blob's RecordDTO aliases Modifies.
type record struct {
	Ev       verbs.Event
	Modifies []rnic.ModifyAttr
	slot     int // index in Indirection.order
	mods     [3]rnic.ModifyAttr
}

// NewIndirection creates an empty indirection layer.
func NewIndirection() *Indirection {
	return &Indirection{recs: make(map[verbs.ObjID]*record)}
}

// Record implements verbs.Recorder.
func (ind *Indirection) Record(ev verbs.Event) {
	switch ev.Kind {
	case verbs.EvAllocPD, verbs.EvRegMR, verbs.EvCreateCQ, verbs.EvCreateQP,
		verbs.EvCreateSRQ, verbs.EvCreateCompChannel, verbs.EvBindMW, verbs.EvAllocDM:
		r := &record{Ev: ev, slot: len(ind.order)}
		ind.order = append(ind.order, r)
		ind.recs[ev.ID] = r
	case verbs.EvModifyQP:
		if r, ok := ind.recs[ev.ID]; ok {
			if r.Modifies == nil {
				r.Modifies = r.mods[:0]
			}
			r.Modifies = append(r.Modifies, ev.Attr)
		}
	case verbs.EvDeallocPD, verbs.EvDeregMR, verbs.EvDestroyCQ, verbs.EvDestroyQP,
		verbs.EvDestroySRQ, verbs.EvDeallocMW, verbs.EvFreeDM:
		// §3.2: deleting the creation log on destroy avoids allocating
		// and releasing the resource during restore.
		r, ok := ind.recs[ev.ID]
		if !ok {
			return
		}
		delete(ind.recs, ev.ID)
		ind.order[r.slot] = nil
		if ind.holes++; ind.holes > len(ind.order)/2 {
			ind.order = ind.live()
			ind.holes = 0
			for i, r := range ind.order {
				r.slot = i
			}
		}
	}
}

// live returns the creation records in creation order.
func (ind *Indirection) live() []*record {
	out := make([]*record, 0, len(ind.order)-ind.holes)
	for _, r := range ind.order {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// --- Checkpoint blobs --------------------------------------------------------

// RecordDTO is the serialized form of one creation record.
type RecordDTO struct {
	Ev       verbs.Event
	Modifies []rnic.ModifyAttr
}

// QPMeta is the per-QP metadata MigrRDMA adds (§3.2): the virtual QPN,
// the destination physical QPN and network address of the peer, and the
// §3.4 wait-before-stop counters.
type QPMeta struct {
	ID         verbs.ObjID
	VQPN       uint32
	Type       rnic.QPType
	State      rnic.QPState
	RemoteNode string
	RemoteQPN  uint32
	NSent      uint64
	NRecvDone  uint64
}

// MRMeta carries an MR's virtual keys so the destination can rebind
// them to the recreated region.
type MRMeta struct {
	ID           verbs.ObjID
	VLKey, VRKey uint32
}

// Blob is a checkpoint of the indirection layer: the communication
// roadmap plus virtualization metadata.
type Blob struct {
	Proc    string
	Records []RecordDTO
	// Destroyed lists resources that existed at pre-dump time but were
	// destroyed before the final dump (difference encoding).
	Destroyed []verbs.ObjID
	QPs       []QPMeta
	MRs       []MRMeta
	Final     bool
}

// encodeBlob serializes a blob.
func encodeBlob(b *Blob) ([]byte, error) {
	data, err := codec.Append(make([]byte, 0, 64), b)
	if err != nil {
		return nil, fmt.Errorf("core: encode blob: %w", err)
	}
	return data, nil
}

// DecodeBlob deserializes a checkpoint blob.
func DecodeBlob(data []byte) (*Blob, error) {
	var b Blob
	if err := codec.Decode(data, &b); err != nil {
		return nil, fmt.Errorf("core: decode blob: %w", err)
	}
	return &b, nil
}
