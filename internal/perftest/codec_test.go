package perftest

import (
	"bytes"
	"reflect"
	"testing"

	"migrrdma/internal/codec"
	"migrrdma/internal/rnic"
)

// TestConnectMessagesRoundTrip: the connection exchange survives the
// shared codec, from a T and from a *T alike.
func TestConnectMessagesRoundTrip(t *testing.T) {
	for _, v := range []any{
		connectReq{}, connectReq{Node: "client", VQPN: 0x100, Verb: rnic.OpWrite, MsgSize: 4096, Depth: 64},
		connectResp{}, connectResp{VQPN: 0x11b, RKey: 2, BufAddr: 0x10_0000_0000, Err: "rnic: INIT→RTR invalid"},
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
