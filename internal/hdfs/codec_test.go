package hdfs

import (
	"testing"
	"time"

	"migrrdma/internal/codec/codectest"
)

// TestControlMessagesEncodeLikeGob: master, worker and datanode messages
// through the shared codec are byte-identical to a fresh gob stream.
func TestControlMessagesEncodeLikeGob(t *testing.T) {
	spec := JobSpec{Kind: EstimatePI, Blocks: 8, BlockSize: 1 << 20, BlockCompute: 200 * time.Microsecond,
		Rounds: 4, Samples: 100000, RoundTime: 50 * time.Millisecond}
	codectest.Differential(t,
		registerMsg{}, registerMsg{Name: "w0", Node: "worker0"},
		heartbeatMsg{}, heartbeatMsg{Name: "w0"},
		unitDoneMsg{}, unitDoneMsg{Name: "w0", Unit: 3, Inside: 78540, Total: 100000},
		assignMsg{}, assignMsg{Spec: spec, Done: []bool{true, false, true, false}},
		dnOpenReq{}, dnOpenReq{Node: "worker0", VQPN: 0x100},
		dnOpenResp{}, dnOpenResp{VQPN: 0x11b, RKey: 3, BufAddr: 0x30_0000_0000, Err: "e"},
	)
}
