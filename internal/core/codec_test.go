package core

import (
	"bytes"
	"reflect"
	"testing"

	"migrrdma/internal/codec"
	"migrrdma/internal/rnic"
	"migrrdma/internal/verbs"
)

// TestControlMessagesRoundTrip runs every daemon message and the
// checkpoint blob, empty and populated, through the shared codec: what
// is decoded is what was encoded, from a T and from a *T alike.
func TestControlMessagesRoundTrip(t *testing.T) {
	blob := Blob{
		Proc: "server", Final: true,
		Records: []RecordDTO{
			{Ev: verbs.Event{Kind: verbs.EvCreateQP, ID: 7, PD: 1, SendCQ: 2, RecvCQ: 2,
				QPType: rnic.RC, Caps: rnic.QPCaps{MaxSend: 128, MaxRecv: 64}},
				Modifies: []rnic.ModifyAttr{{State: rnic.StateInit},
					{State: rnic.StateRTR, RemoteNode: "partner", RemoteQPN: 0x1234}, {State: rnic.StateRTS}}},
			{Ev: verbs.Event{Kind: verbs.EvRegMR, ID: 3, PD: 1, Addr: 0x10_0000_0000, Len: 8 << 20,
				Access: rnic.AccessLocalWrite | rnic.AccessRemoteWrite}},
		},
		Destroyed: []verbs.ObjID{4, 9},
		QPs: []QPMeta{{ID: 7, VQPN: 0x100, Type: rnic.RC, State: rnic.StateRTS,
			RemoteNode: "partner", RemoteQPN: 0x11b, NSent: 1 << 40, NRecvDone: 77}},
		MRs: []MRMeta{{ID: 3, VLKey: 1, VRKey: 2}},
	}
	for _, v := range []any{
		fetchRKeyReq{}, fetchRKeyReq{RQPN: 0x100, VRKey: 3},
		fetchRKeyResp{}, fetchRKeyResp{Phys: 0x2107, Err: "unknown virtual rkey 0x3"},
		fetchQPNReq{}, fetchQPNReq{VQPN: 0x11b},
		fetchQPNResp{}, fetchQPNResp{Node: "dst", Phys: 0x136, Moved: "dst", Err: "e"},
		nsentMsg{}, nsentMsg{DstQPN: 0x100, NSent: 1<<63 + 5},
		suspendForReq{}, suspendForReq{MigID: "m3", SrcNode: "src", PartnerQPNs: []uint32{0x100, 0x11b, 0x136}},
		suspendForResp{}, suspendForResp{ElapsedNS: 361_200, TimedOut: true},
		notifyReq{}, notifyReq{MigID: "m1", Proc: "server", DestNode: "dst",
			Pairs: []notifyPair{{PartnerQPN: 0x100, VQPN: 0x100}, {PartnerQPN: 0x11b, VQPN: 0x11b}}},
		connectNewReq{}, connectNewReq{MigID: "m1", Proc: "server", VQPN: 0x100, PartnerNode: "partner", PartnerQPN: 0x100},
		connectNewResp{}, connectNewResp{DestQPN: 0x151, Err: "no staged restore for server"},
		switchReq{}, switchReq{MigID: "m1", Proc: "server", SrcNode: "src", DestNode: "dst"},
		abortReq{}, abortReq{MigID: "m2", Proc: "server", SrcNode: "src"},
		Blob{}, blob,
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
