// Package tenant is a multi-tenant RDMA-as-a-service layer over the
// MigrRDMA guest library: many tenant sessions are multiplexed onto a
// small pool of shared queue pairs between a Gateway (the tenants'
// host-side mux) and a Service (the provider process, running inside a
// migratable container). The design follows the resource-consolidation
// argument of the paper's §6 discussion — per-tenant verbs resources do
// not scale, so the service owns a handful of lanes and a single PD/MR
// and enforces tenancy in software:
//
//   - session open/close is an out-of-band handshake on the existing
//     OOB hub (the same socket-exchange convention perftest uses for
//     QP bring-up, §3.3);
//   - every data operation carries the tenant's rkey-namespace token;
//     the service validates the claimed token against the session's
//     own namespace and NAKs cross-tenant claims without touching
//     memory — device-level rkey checks cannot provide this isolation
//     because all tenants share one MR;
//   - admission is credit-based per tenant: a session out of credits
//     queues its operations (never drops them) until the deterministic
//     refill tick, so one tenant cannot monopolise the shared lanes;
//   - per-tenant metrics labels are optional (PerTenantMetrics) so
//     small-N chaos runs get per-session counters while thousand-
//     session benchmarks keep the registry tractable.
//
// Because the whole tenant table is ordinary process state inside the
// service container, a live migration of that container carries every
// tenant session with it: the lanes suspend and resume under
// wait-before-stop exactly like any other guest-library QP, and the
// gateway observes only a blackout, never a lost or duplicated
// operation. The chaos tier (internal/chaos, scenarios tenant/*) pins that
// per-tenant exactly-once guarantee under fault schedules.
package tenant

import (
	"encoding/binary"
	"time"

	"migrrdma/internal/mem"
)

// Options configures both sides of a tenant deployment.
type Options struct {
	// Sessions is the number of tenant sessions the gateway opens at
	// start-up (more can be opened later); it also sizes the service's
	// tenant-slice arena, so open churn beyond 2×Sessions is rejected.
	Sessions int
	// Lanes is the number of shared queue pairs between gateway and
	// service. All tenant traffic multiplexes onto these.
	Lanes int
	// LaneDepth bounds the unacknowledged requests in flight per lane.
	LaneDepth int
	// Credits is the per-tenant admission bucket capacity. Each data
	// operation spends one credit; an empty bucket queues the operation.
	Credits int
	// RefillEvery is the deterministic credit refill cadence.
	RefillEvery time.Duration
	// RefillAmount is the number of credits returned per refill tick.
	RefillAmount int
	// PerTenantMetrics labels service counters with the session ID.
	// Off by default: a thousand-session benchmark would explode the
	// registry; the chaos tier turns it on at small N.
	PerTenantMetrics bool
}

func (o Options) withDefaults() Options {
	if o.Sessions == 0 {
		o.Sessions = 8
	}
	if o.Lanes == 0 {
		o.Lanes = 2
	}
	if o.LaneDepth == 0 {
		o.LaneDepth = 32
	}
	if o.Credits == 0 {
		o.Credits = 32
	}
	if o.RefillEvery == 0 {
		o.RefillEvery = 20 * time.Microsecond
	}
	if o.RefillAmount == 0 {
		o.RefillAmount = o.Credits
	}
	return o
}

// recvDepth over-provisions receive rings relative to the lane window
// so the migration thaw is absorbed by posted receives (the same
// RNR-avoidance perftest.Options.RecvDepth documents).
func (o Options) recvDepth() int { return 2 * o.LaneDepth }

// tenantArena is where both sides map their message buffers.
const tenantArena = mem.Addr(0x20_0000_0000)

// sliceSize is the per-tenant region of the service arena validated
// writes land in.
const sliceSize = 64

const (
	// msgSize is the wire size of one request/response message.
	msgSize = 128
	// headerSize is the tenancy header at the front of every message.
	headerSize = 32
)

// Message kinds.
const (
	kindData = 1 // gateway → service data operation
	kindResp = 2 // service → gateway acknowledgement
)

// Response statuses. StatusOK acknowledges the operation; everything
// else is a NAK naming the admission check that rejected it.
const (
	StatusOK             = 0
	StatusUnknownSession = 1
	StatusCrossTenant    = 2
	StatusBounds         = 3
)

// header is the 32-byte tenancy header stamped at the front of each
// message slot:
//
//	[0:4)   session ID
//	[4:8)   claimed rkey-namespace token
//	[8:16)  per-session sequence number
//	[16]    kind
//	[17]    status (responses)
//	[20:24) target offset within the tenant's slice
//	[24:32) payload stamp (= seq; integrity check)
type header struct {
	Sess   uint32
	Token  uint32
	Seq    uint64
	Kind   byte
	Status byte
	Off    uint32
	Stamp  uint64
}

func writeHeader(as *mem.AddressSpace, addr mem.Addr, h header) error {
	var b [headerSize]byte
	binary.LittleEndian.PutUint32(b[0:4], h.Sess)
	binary.LittleEndian.PutUint32(b[4:8], h.Token)
	binary.LittleEndian.PutUint64(b[8:16], h.Seq)
	b[16] = h.Kind
	b[17] = h.Status
	binary.LittleEndian.PutUint32(b[20:24], h.Off)
	binary.LittleEndian.PutUint64(b[24:32], h.Stamp)
	return as.Write(addr, b[:])
}

func readHeader(as *mem.AddressSpace, addr mem.Addr) (header, error) {
	var b [headerSize]byte
	if err := as.Read(addr, b[:]); err != nil {
		return header{}, err
	}
	return header{
		Sess:   binary.LittleEndian.Uint32(b[0:4]),
		Token:  binary.LittleEndian.Uint32(b[4:8]),
		Seq:    binary.LittleEndian.Uint64(b[8:16]),
		Kind:   b[16],
		Status: b[17],
		Off:    binary.LittleEndian.Uint32(b[20:24]),
		Stamp:  binary.LittleEndian.Uint64(b[24:32]),
	}, nil
}

// --- Out-of-band handshake ----------------------------------------------------

// Target names a service's control endpoint. The endpoint stays
// anchored at the node the service was launched on: OOB control is
// location-transparent in the testbed, so it keeps serving across a
// migration of the service container (a production deployment would
// re-register the endpoint after cutover).
type Target struct {
	Node string
	Name string // service name (endpoint "tenant:<name>")
}

// attachReq connects the gateway's lane QPs to the service.
type attachReq struct {
	Node  string
	Lanes []uint32 // gateway lane VQPNs, in lane order
}

type attachResp struct {
	Lanes []uint32 // service lane VQPNs, in lane order
	Err   string
}

// openReq opens Count tenant sessions in one round trip.
type openReq struct {
	Count int
}

// openResp returns the contiguous session ID range [Base, Base+Count)
// and the token schedule: session i's namespace token is
// TokenBase ^ (i * TokenMul). Only the service defines the schedule;
// the gateway learns it here.
type openResp struct {
	Base      uint32
	TokenBase uint32
	TokenMul  uint32
	Err       string
}

// closeReq closes one session; the token must match (closing is an
// owner-only operation, like any other namespace access).
type closeReq struct {
	Sess  uint32
	Token uint32
}

type closeResp struct {
	Err string
}
