package oob

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/fabric"
	"migrrdma/internal/sim"
)

func twoHubs(t testing.TB) (*sim.Scheduler, *Hub, *Hub) {
	t.Helper()
	s := sim.New(11)
	net := fabric.New(s, fabric.Config{})
	ha := NewHub(net, fabric.NewMux(net, "a"), "a")
	hb := NewHub(net, fabric.NewMux(net, "b"), "b")
	return s, ha, hb
}

func TestSendRecv(t *testing.T) {
	s, ha, hb := twoHubs(t)
	svc := hb.Endpoint("svc")
	if _, ok := svc.TryRecv(); ok {
		t.Fatal("TryRecv on an empty inbox returned a message")
	}
	s.Go("send", func() {
		ha.Endpoint("cli").Send("b", "svc", "hello", []byte("world"))
	})
	s.Run()
	got, ok := svc.TryRecv()
	if !ok || got.Kind != "hello" || string(got.Body) != "world" || got.FromNode != "a" || got.FromEP != "cli" {
		t.Fatalf("got %+v, %v", got, ok)
	}
}

func TestCallReply(t *testing.T) {
	s, ha, hb := twoHubs(t)
	hb.Endpoint("svc").Handle("double", func(m Msg) []byte {
		return append(m.Body, m.Body...)
	})
	var resp []byte
	s.Go("call", func() {
		resp = ha.Endpoint("cli").Call("b", "svc", "double", []byte("xy"))
	})
	s.Run()
	if string(resp) != "xyxy" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, ha, hb := twoHubs(t)
	hb.Endpoint("svc").Handle("echo", func(m Msg) []byte { return m.Body })
	results := make([]string, 5)
	for i := 0; i < 5; i++ {
		i := i
		s.Go("call", func() {
			results[i] = string(ha.Endpoint("cli").Call("b", "svc", "echo", []byte{byte('0' + i)}))
		})
	}
	s.Run()
	for i, r := range results {
		if r != string(rune('0'+i)) {
			t.Fatalf("call %d got %q", i, r)
		}
	}
}

func TestHandlerMayBlock(t *testing.T) {
	s, ha, hb := twoHubs(t)
	hb.Endpoint("svc").Handle("slow", func(m Msg) []byte {
		s.Sleep(1e6) // 1 ms of virtual time inside the handler
		return []byte("done")
	})
	var resp []byte
	s.Go("call", func() {
		resp = ha.Endpoint("cli").Call("b", "svc", "slow", nil)
	})
	s.Run()
	if string(resp) != "done" {
		t.Fatalf("resp = %q", resp)
	}
}

// encode is the frame carrying w.body as it is.
func (w wire) encode() []byte {
	f, _ := w.frame(w.body)
	return f
}

func TestWireRoundTrip(t *testing.T) {
	w := wire{fromEP: "from", toEP: "to", kind: "k", body: []byte("payload"), reqID: 42, isReply: true}
	got, err := (&Hub{names: map[string]string{}}).decodeWire(w.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.fromEP != w.fromEP || got.toEP != w.toEP || got.kind != w.kind ||
		string(got.body) != "payload" || got.reqID != 42 || !got.isReply {
		t.Fatalf("round trip: %+v", got)
	}
}

// FuzzDecodeWire: arbitrary bytes never panic the control-frame decoder,
// and whatever it accepts re-encodes to exactly the bytes it came from.
func FuzzDecodeWire(f *testing.F) {
	f.Add(wire{fromEP: "cli", toEP: "svc", kind: "echo", body: []byte("ping"), reqID: 7}.encode())
	f.Add(wire{fromEP: "svc", toEP: "cli", kind: "echo", body: []byte("ping"), reqID: 7, isReply: true}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := (&Hub{names: map[string]string{}}).decodeWire(b)
		if err != nil {
			return
		}
		if got := w.encode(); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode round trip:\n in  %x\n out %x", b, got)
		}
	})
}

func TestUnknownEndpointDropped(t *testing.T) {
	s, ha, _ := twoHubs(t)
	s.Go("send", func() {
		ha.Endpoint("cli").Send("b", "nobody", "x", nil)
	})
	s.Run() // must terminate without panic
}

func TestCallTimeoutOnMissingEndpoint(t *testing.T) {
	s, ha, _ := twoHubs(t)
	var ok bool
	var elapsed time.Duration
	s.Go("call", func() {
		start := s.Now()
		_, ok = ha.Endpoint("cli").CallTimeout("b", "ghost", "ping", nil, 3*time.Millisecond)
		elapsed = s.Now() - start
	})
	s.Run()
	if ok {
		t.Fatal("call to missing endpoint succeeded")
	}
	if elapsed < 3*time.Millisecond {
		t.Fatalf("timed out after %v, want ≥3ms", elapsed)
	}
}

func TestCallTimeoutStillDeliversInTime(t *testing.T) {
	s, ha, hb := twoHubs(t)
	hb.Endpoint("svc").Handle("echo", func(m Msg) []byte { return m.Body })
	var resp []byte
	var ok bool
	s.Go("call", func() {
		resp, ok = ha.Endpoint("cli").CallTimeout("b", "svc", "echo", []byte("hi"), 50*time.Millisecond)
	})
	s.Run()
	if !ok || string(resp) != "hi" {
		t.Fatalf("resp=%q ok=%v", resp, ok)
	}
}

func TestHandlerServesOneWayMessages(t *testing.T) {
	s, ha, hb := twoHubs(t)
	var got []string
	hb.Endpoint("svc").Handle("event", func(m Msg) []byte {
		got = append(got, string(m.Body))
		return nil // one-way: no reply expected
	})
	s.Go("send", func() {
		ep := ha.Endpoint("cli")
		ep.Send("b", "svc", "event", []byte("x"))
		ep.Send("b", "svc", "event", []byte("y"))
	})
	s.Run()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("handler received %v", got)
	}
}

// TestCallAllocations pins the cost of one Call round trip against a
// registered handler: the two frames and the handler's proc — no call
// record, name strings, closure, Cond or goroutine per message.
func TestCallAllocations(t *testing.T) {
	s, ha, hb := twoHubs(t)
	hb.Endpoint("svc").Handle("echo", func(m Msg) []byte { return m.Body })
	body := []byte("payload")
	var allocs float64
	s.Go("caller", func() {
		cli := ha.Endpoint("cli")
		call := func() {
			if resp := cli.Call("b", "svc", "echo", body); string(resp) != "payload" {
				t.Errorf("echo returned %q", resp)
			}
		}
		call() // interns the names, starts the handler's worker
		allocs = testing.AllocsPerRun(2000, call)
	})
	s.Run()
	if allocs > 3 {
		t.Fatalf("one Call round trip allocates %.1f times, want at most 3", allocs)
	}
	if n := len(hb.idle); n != 1 {
		t.Fatalf("%d servings on the hub's idle list after sequential calls, want 1 reused", n)
	}
}

// TestHandleAllServesItsKinds: one registration serves every kind of
// the set under the proc name Handle would have given it, a Handle for
// the same kind wins, and a kind outside the set is still unhandled — an
// RPC for it times out, a one-way message lands in the inbox.
func TestHandleAllServesItsKinds(t *testing.T) {
	s, ha, hb := twoHubs(t)
	defer s.Close()
	svc := hb.Endpoint("svc")
	stuck := sim.NewCond(s, "stuck")
	svc.HandleAll(NewKinds("ping", "park", "own"), func(m Msg) []byte {
		if m.Kind == "park" {
			stuck.Wait()
		}
		return []byte("all:" + m.Kind)
	})
	svc.Handle("own", func(Msg) []byte { return []byte("own") })
	s.Go("call", func() {
		cli := ha.Endpoint("cli")
		if got := string(cli.Call("b", "svc", "ping", nil)); got != "all:ping" {
			t.Errorf("ping answered %q", got)
		}
		if got := string(cli.Call("b", "svc", "own", nil)); got != "own" {
			t.Errorf("own answered %q", got)
		}
		if _, ok := cli.CallTimeout("b", "svc", "other", nil, time.Millisecond); ok {
			t.Error("a kind outside the set was answered")
		}
		cli.Send("b", "svc", "other", []byte("x"))
		cli.Call("b", "svc", "park", nil)
	})
	defer func() {
		// The parked handler proc shows under the kind's proc name.
		if msg, _ := recover().(string); !strings.Contains(msg, "oob-handler:park (blocked at: wait stuck)") {
			t.Errorf("deadlock report: %s", msg)
		}
		if m, ok := svc.TryRecv(); !ok || m.Kind != "other" {
			t.Errorf("one-way message of an unhandled kind: %+v, %v", m, ok)
		}
	}()
	s.Run()
}

// TestInboxKeepsTheFirst4096: the one-way inbox holds 4,096 messages.
// Of 4,097 sent to an endpoint that has no handler for their kind,
// TryRecv yields the first 4,096 in send order; the newest is dropped.
func TestInboxKeepsTheFirst4096(t *testing.T) {
	s, ha, hb := twoHubs(t)
	defer s.Close()
	svc := hb.Endpoint("svc")
	s.Go("send", func() {
		cli := ha.Endpoint("cli")
		for i := 0; i <= 4096; i++ {
			cli.Send("b", "svc", "note", []byte(strconv.Itoa(i)))
		}
	})
	s.Run()
	for i := 0; i < 4096; i++ {
		m, ok := svc.TryRecv()
		if !ok || m.Kind != "note" || string(m.Body) != strconv.Itoa(i) {
			t.Fatalf("message %d: %q %q, %v", i, m.Kind, m.Body, ok)
		}
	}
	if m, ok := svc.TryRecv(); ok {
		t.Fatalf("inbox held a 4,097th message: %q", m.Body)
	}
}

// nsent and fetched are a request and a reply of the shape most control
// messages have: a few integers.
type nsent struct {
	DstQPN uint32
	NSent  uint64
}

type fetched struct {
	Phys  uint32
	Moved bool
}

// serveFetch answers an nsent with its QPN doubled.
func serveFetch(m Msg) []byte {
	var req nsent
	codec.MustDecode(m.Body, &req)
	return m.Reply(fetched{Phys: 2 * req.DstQPN})
}

// callFetch makes one codec-bodied round trip and checks its answer.
func callFetch(tb testing.TB, cli *Endpoint) {
	var resp fetched
	codec.MustDecode(cli.Call("b", "svc", "fetch", nsent{DstQPN: 21, NSent: 7}), &resp)
	if resp.Phys != 42 {
		tb.Fatalf("fetch answered %+v", resp)
	}
}

// TestMessageCallAllocations: a round trip whose request and reply are
// messages costs what a raw one does — one buffer a frame, each message
// encoded straight into its frame, and the handler's proc. Neither
// message leaves the stack of the proc that builds or decodes it.
func TestMessageCallAllocations(t *testing.T) {
	s, ha, hb := twoHubs(t)
	defer s.Close()
	hb.Endpoint("svc").Handle("fetch", serveFetch)
	var allocs float64
	s.Go("caller", func() {
		cli := ha.Endpoint("cli")
		callFetch(t, cli)
		allocs = testing.AllocsPerRun(2000, func() { callFetch(t, cli) })
	})
	s.Run()
	if allocs > 3 {
		t.Fatalf("one message round trip allocates %.1f times, want at most 3", allocs)
	}
}

// TestReplyFramesMatchEncodedBodies: a frame whose body is a message is
// byte for byte the frame carrying that message's codec encoding, so its
// wire size is too; a reply Msg.Reply lays out reaches the caller as
// that encoding; and a handler that calls Reply but returns something
// else sends what it returns.
func TestReplyFramesMatchEncodedBodies(t *testing.T) {
	v := fetched{Phys: 0x11b, Moved: true}
	w := wire{fromEP: "svc", toEP: "cli", kind: "fetch", reqID: 9, isReply: true}
	direct, _ := w.frame(v)
	raw, _ := w.frame(codec.MustEncode(v))
	if !bytes.Equal(direct, raw) {
		t.Fatalf("frame of the message %x, of its encoding %x", direct, raw)
	}
	s, ha, hb := twoHubs(t)
	defer s.Close()
	svc := hb.Endpoint("svc")
	svc.Handle("reply", func(m Msg) []byte { return m.Reply(v) })
	svc.Handle("encode", func(m Msg) []byte { return codec.MustEncode(v) })
	svc.Handle("other", func(m Msg) []byte {
		m.Reply(v)
		return []byte("other")
	})
	s.Go("caller", func() {
		cli := ha.Endpoint("cli")
		r1 := cli.Call("b", "svc", "reply", nil)
		r2 := cli.Call("b", "svc", "encode", nil)
		if !bytes.Equal(r1, r2) || !bytes.Equal(r1, codec.MustEncode(v)) {
			t.Errorf("Reply answered %x, MustEncode %x", r1, r2)
		}
		if got := string(cli.Call("b", "svc", "other", nil)); got != "other" {
			t.Errorf("a handler returning its own bytes answered %q", got)
		}
	})
	s.Run()
}

// BenchmarkCallRoundTrip: one codec-bodied Call against a registered
// handler, request and reply encoded into their frames and decoded off
// them; its allocs/op is TestMessageCallAllocations' figure.
func BenchmarkCallRoundTrip(b *testing.B) {
	s, ha, hb := twoHubs(b)
	defer s.Close()
	hb.Endpoint("svc").Handle("fetch", serveFetch)
	s.Go("caller", func() {
		cli := ha.Endpoint("cli")
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			callFetch(b, cli)
		}
	})
	s.Run()
}
