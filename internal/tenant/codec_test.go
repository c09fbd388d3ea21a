package tenant

import (
	"bytes"
	"reflect"
	"testing"

	"migrrdma/internal/codec"
)

// TestHandshakeMessagesRoundTrip: the attach/open/close handshake
// survives the shared codec, from a T and from a *T alike.
func TestHandshakeMessagesRoundTrip(t *testing.T) {
	for _, v := range []any{
		attachReq{}, attachReq{Node: "src", Lanes: []uint32{0x100, 0x11b, 0x136, 0x151}},
		attachResp{}, attachResp{Lanes: []uint32{0x100, 0x11b}, Err: "lane count mismatch"},
		openReq{}, openReq{Count: 2000},
		openResp{}, openResp{Base: 250, TokenBase: 0xA5A5_0000, TokenMul: 2654435761, Err: "arena full"},
		closeReq{}, closeReq{Sess: 17, Token: 0xDEAD},
		closeResp{}, closeResp{Err: "token mismatch"},
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
