package core

import (
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/oob"
)

// oobAdapter binds the daemon's control protocol to the host's
// out-of-band hub.
type oobAdapter struct {
	ep *oob.Endpoint
}

// probeTimeout bounds the hello probe; a missing peer daemon (the §6
// hybrid case) shows up as a timed-out hello rather than a hang. Other
// control RPCs (suspension fan-out, partner pre-setup) legitimately
// block for as long as wait-before-stop or QP setup takes, so they
// carry no timeout.
const probeTimeout = 50 * time.Millisecond

// newOOBAdapter opens the daemon's endpoint with serve behind every
// kind of the control protocol.
func newOOBAdapter(h *cluster.Host, serve oob.Handler) *oobAdapter {
	a := &oobAdapter{ep: h.Hub.Endpoint(EndpointName)}
	a.ep.HandleAll(daemonKinds, serve)
	return a
}

func (a *oobAdapter) Call(toNode, kind string, body any) ([]byte, bool) {
	if kind == "hello" {
		return a.ep.CallTimeout(toNode, EndpointName, kind, body, probeTimeout)
	}
	return a.ep.CallTimeout(toNode, EndpointName, kind, body, 0)
}

func (a *oobAdapter) Send(toNode, kind string, body any) {
	a.ep.Send(toNode, EndpointName, kind, body)
}
