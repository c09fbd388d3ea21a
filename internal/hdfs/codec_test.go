package hdfs

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"migrrdma/internal/codec"
)

// TestControlMessagesRoundTrip: master, worker and datanode messages
// survive the shared codec, from a T and from a *T alike.
func TestControlMessagesRoundTrip(t *testing.T) {
	spec := JobSpec{Kind: EstimatePI, Blocks: 8, BlockSize: 1 << 20, BlockCompute: 200 * time.Microsecond,
		Rounds: 4, Samples: 100000, RoundTime: 50 * time.Millisecond}
	for _, v := range []any{
		registerMsg{}, registerMsg{Name: "w0", Node: "worker0"},
		heartbeatMsg{}, heartbeatMsg{Name: "w0"},
		unitDoneMsg{}, unitDoneMsg{Name: "w0", Unit: 3, Inside: 78540, Total: 100000},
		assignMsg{}, assignMsg{Spec: spec, Done: []bool{true, false, true, false}},
		dnOpenReq{}, dnOpenReq{Node: "worker0", VQPN: 0x100},
		dnOpenResp{}, dnOpenResp{VQPN: 0x11b, RKey: 3, BufAddr: 0x30_0000_0000, Err: "e"},
	} {
		back := reflect.New(reflect.TypeOf(v))
		if err := codec.Decode(codec.MustEncode(v), back.Interface()); err != nil {
			t.Errorf("%T: %v", v, err)
		} else if !reflect.DeepEqual(back.Elem().Interface(), v) {
			t.Errorf("%T: round trip gave %+v, want %+v", v, back.Elem(), v)
		}
		// back is a *T holding the same value.
		if !bytes.Equal(codec.MustEncode(back.Interface()), codec.MustEncode(v)) {
			t.Errorf("%T: *T and T encode differently", v)
		}
	}
}
