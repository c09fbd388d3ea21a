package perftest

import (
	"testing"

	"migrrdma/internal/codec/codectest"
	"migrrdma/internal/rnic"
)

// TestConnectMessagesEncodeLikeGob: the connection exchange through the
// shared codec is byte-identical to a fresh gob stream.
func TestConnectMessagesEncodeLikeGob(t *testing.T) {
	codectest.Differential(t,
		connectReq{}, connectReq{Node: "client", VQPN: 0x100, Verb: rnic.OpWrite, MsgSize: 4096, Depth: 64},
		connectResp{}, connectResp{VQPN: 0x11b, RKey: 2, BufAddr: 0x10_0000_0000, Err: "rnic: INIT→RTR invalid"},
	)
}
