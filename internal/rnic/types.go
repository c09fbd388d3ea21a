// Package rnic models an RDMA NIC with hardware-offloaded transport.
//
// The device owns every communication state the paper calls
// "maintained by RNICs" (§2.2): queue pairs with their PSN tracking,
// completion queues, memory protection tables, retransmission machinery.
// Those states are private to this package — software above (the verbs
// layer, the MigrRDMA indirection layer, migration tools) can only drive
// the documented control and data path, exactly the constraint that
// motivates a software-based migration design. While host software is
// frozen, the device keeps processing posted work requests, reproducing
// the in-flight-consistency challenge of §2.2(3).
//
// The transport is RoCEv2-like: messages are segmented into MTU-sized
// frames carried over internal/fabric, sequenced by a 24-bit PSN, and
// recovered with cumulative ACKs, go-back-N NAKs, RNR NAKs and a
// retransmission timer.
package rnic

import (
	"fmt"

	"migrrdma/internal/mem"
)

// QPType selects the transport service.
type QPType uint8

// Supported queue pair service types.
const (
	RC QPType = iota // reliable connection
	UD               // unreliable datagram
)

func (t QPType) String() string {
	switch t {
	case RC:
		return "RC"
	case UD:
		return "UD"
	}
	return fmt.Sprintf("QPType(%d)", uint8(t))
}

// QPState is the queue pair state machine of the verbs spec.
type QPState uint8

// Queue pair states.
const (
	StateReset QPState = iota
	StateInit
	StateRTR
	StateRTS
	StateError
)

func (s QPState) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateInit:
		return "INIT"
	case StateRTR:
		return "RTR"
	case StateRTS:
		return "RTS"
	case StateError:
		return "ERR"
	}
	return fmt.Sprintf("QPState(%d)", uint8(s))
}

// Opcode identifies a work request operation.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpSendImm
	OpWrite
	OpWriteImm
	OpRead
	OpCompSwap
	OpFetchAdd
	OpRecv // used in completions only
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpSendImm:
		return "SEND_IMM"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	case OpCompSwap:
		return "CMP_SWAP"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpRecv:
		return "RECV"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// IsOneSided reports whether the op completes without consuming a
// receive WQE on the responder (WRITE_IMM consumes one).
func (o Opcode) IsOneSided() bool {
	return o == OpWrite || o == OpRead || o == OpCompSwap || o == OpFetchAdd
}

// Access rights for memory regions and windows.
type Access uint8

// Access flag bits.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// WCStatus is the status of a completed work request.
type WCStatus uint8

// Work completion statuses.
const (
	WCSuccess WCStatus = iota
	WCLocalProtErr
	WCRemoteAccessErr
	WCRetryExceeded
	WCRNRRetryExceeded
	WCWRFlushErr
	WCRemoteOpErr
)

func (s WCStatus) String() string {
	switch s {
	case WCSuccess:
		return "SUCCESS"
	case WCLocalProtErr:
		return "LOC_PROT_ERR"
	case WCRemoteAccessErr:
		return "REM_ACCESS_ERR"
	case WCRetryExceeded:
		return "RETRY_EXC_ERR"
	case WCRNRRetryExceeded:
		return "RNR_RETRY_EXC_ERR"
	case WCWRFlushErr:
		return "WR_FLUSH_ERR"
	case WCRemoteOpErr:
		return "REM_OP_ERR"
	}
	return fmt.Sprintf("WCStatus(%d)", uint8(s))
}

// SGE is a scatter/gather element referencing registered memory.
type SGE struct {
	Addr mem.Addr
	Len  uint32
	LKey uint32
}

// inlineSGEs is how many scatter/gather elements an SGEList holds in its
// own storage; longer lists spill to a heap copy. Every work request the
// tree posts has one SGE, and each more inline would add 16 bytes to
// every WQE, shadow and receive-ring slot (a RecvWQE is 56 bytes).
const inlineSGEs = 1

// SGEList is an owned copy of a posted scatter/gather list. Whoever
// queues a work request — the device its WQE, the guest library its
// shadow of the WR — copies the list into one at post time, so the
// poster may reuse its SGE array as soon as the post returns (as
// ibv_post_send permits) and queuing allocates nothing.
type SGEList struct {
	n      int
	inline [inlineSGEs]SGE
	spill  []SGE
}

// Set copies sges into l.
func (l *SGEList) Set(sges []SGE) {
	l.n, l.spill = len(sges), nil
	if len(sges) <= inlineSGEs {
		copy(l.inline[:], sges)
	} else {
		l.spill = append(l.spill, sges...)
	}
}

// Get returns the list. It aliases l, so l must not move while the
// result is in use.
func (l *SGEList) Get() []SGE {
	if l.spill != nil {
		return l.spill
	}
	return l.inline[:l.n]
}

// SendWR is a send-queue work request.
type SendWR struct {
	WRID     uint64
	Opcode   Opcode
	SGEs     []SGE
	Signaled bool
	Imm      uint32

	// One-sided targets.
	RemoteAddr mem.Addr
	RKey       uint32

	// Atomics.
	CompareAdd uint64 // FETCH_ADD addend or CMP_SWAP compare value
	Swap       uint64 // CMP_SWAP swap value

	// UD addressing.
	RemoteNode string
	RemoteQPN  uint32
}

// RecvWR is a receive-queue work request.
type RecvWR struct {
	WRID uint64
	SGEs []SGE
}

// RecvWQE is a queued receive work request that owns its scatter list:
// the device's RQ and SRQ elements, and the guest library's shadows of
// posted receives.
type RecvWQE struct {
	WRID uint64
	sges SGEList
}

// NewRecvWQE copies wr, scatter list included.
func NewRecvWQE(wr RecvWR) RecvWQE {
	w := RecvWQE{WRID: wr.WRID}
	w.sges.Set(wr.SGEs)
	return w
}

// Request rebuilds the posted WR. Its SGEs alias w, so w must stay in
// place while the result is in use.
func (w *RecvWQE) Request() RecvWR { return RecvWR{WRID: w.WRID, SGEs: w.sges.Get()} }

// CQE is a completion queue entry.
type CQE struct {
	WRID    uint64
	Status  WCStatus
	Opcode  Opcode
	QPN     uint32 // local QP number, physical — see paper §3.3
	ByteLen uint32
	Imm     uint32
	HasImm  bool
	SrcQP   uint32 // UD only
}

// wrLen sums the SGE lengths of a request.
func wrLen(sges []SGE) uint32 {
	var n uint32
	for _, s := range sges {
		n += s.Len
	}
	return n
}
