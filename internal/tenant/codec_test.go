package tenant

import (
	"testing"

	"migrrdma/internal/codec/codectest"
)

// TestHandshakeMessagesEncodeLikeGob: the attach/open/close handshake
// through the shared codec is byte-identical to a fresh gob stream.
func TestHandshakeMessagesEncodeLikeGob(t *testing.T) {
	codectest.Differential(t,
		attachReq{}, attachReq{Node: "src", Lanes: []uint32{0x100, 0x11b, 0x136, 0x151}},
		attachResp{}, attachResp{Lanes: []uint32{0x100, 0x11b}, Err: "lane count mismatch"},
		openReq{}, openReq{Count: 2000},
		openResp{}, openResp{Base: 250, TokenBase: 0xA5A5_0000, TokenMul: 2654435761, Err: "arena full"},
		closeReq{}, closeReq{Sess: 17, Token: 0xDEAD},
		closeResp{}, closeResp{Err: "token mismatch"},
	)
}
