package codec_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"migrrdma/internal/codec"
)

type inner struct {
	ID   uint64
	Tags []string
}

type msg struct {
	Name string
	N    int
	In   inner
	List []inner
	Raw  []byte
	skip int // unexported: not on the wire
}

// every has a field of each supported kind; FuzzDecode decodes into it.
type every struct {
	B    bool
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	D    time.Duration
	S    string
	Raw  []byte
	Strs []string
	In   inner
	List []inner
	Grid [][]uint32
}

func populated() msg {
	return msg{
		Name: "m1", N: -7, In: inner{ID: 9, Tags: []string{"a", "b"}},
		List: []inner{{ID: 1}, {ID: 2, Tags: []string{"x"}}},
		Raw:  bytes.Repeat([]byte{0xAB}, 300),
	}
}

func populatedEvery() every {
	return every{
		B: true, I: -7, I8: -128, I16: 1 << 14, I32: -1 << 31, I64: 1<<63 - 1,
		U: 300, U8: 255, U16: 1 << 15, U32: 0x11b, U64: 1<<63 + 5,
		D: 50 * time.Millisecond, S: "dst", Raw: []byte{0xAB, 0xCD}, Strs: []string{"", "x"},
		In: inner{ID: 9, Tags: []string{"a"}}, List: []inner{{ID: 1}, {ID: 2, Tags: []string{"x", "y"}}},
		Grid: [][]uint32{{1, 2}, nil, {300}},
	}
}

// TestWireLayout pins the layout by hand, one value per field kind: what
// a frame costs on the simulated wire is these bytes and nothing else.
func TestWireLayout(t *testing.T) {
	type flags struct{ A, B bool }
	type named struct {
		D time.Duration
		K reflect.Kind // a named uint
	}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"bool", flags{A: true}, "01 00"},
		{"small negative int, zigzag", -7, "0d"},
		{"two-byte int", int64(300), "d8 04"},
		{"most negative int8", int8(-128), "ff 01"},
		{"uint32", uint32(0x11b), "9b 02"},
		{"uint64 above 1<<63", uint64(1<<63 + 5), "85 80 80 80 80 80 80 80 80 01"},
		{"named integers", named{D: 50 * time.Millisecond, K: 25}, "80 c2 d7 2f 19"},
		{"string", "dst", "03 64 73 74"},
		{"empty string", "", "00"},
		{"[]byte is raw", []byte{0xAB, 0xCD}, "02 ab cd"},
		{"[]uint32 is a varint each", []uint32{1, 300}, "02 01 ac 02"},
		{"nil slice", []string(nil), "00"},
		{"struct is its fields inline", inner{ID: 9, Tags: []string{"a", "b"}}, "09 02 01 61 01 62"},
		{"slice of structs", []inner{{ID: 1}, {ID: 2, Tags: []string{"x"}}}, "02 01 00 02 01 01 78"},
		{"slice of slices", [][]uint32{{1, 2}, nil, {300}}, "03 02 01 02 00 01 ac 02"},
		{"fields in declaration order, nothing for the unexported one",
			msg{Name: "m1", N: 1, In: inner{ID: 2}, List: []inner{{ID: 3}}, Raw: []byte{4}},
			"02 6d 31 02 02 00 01 03 00 01 04"},
	} {
		want, err := hex.DecodeString(strings.ReplaceAll(tc.want, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if got := codec.MustEncode(tc.v); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded % x, want % x", tc.name, got, want)
		}
		back := reflect.New(reflect.TypeOf(tc.v))
		if err := codec.Decode(want, back.Interface()); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		} else if !reflect.DeepEqual(back.Elem().Interface(), tc.v) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, back.Elem(), tc.v)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, v := range []any{msg{}, populated(), every{}, populatedEvery(), inner{}, "bare string", []uint32{1, 2, 3}} {
		back := reflect.New(reflect.TypeOf(v))
		if err := codec.Decode(codec.MustEncode(v), back.Interface()); err != nil {
			t.Errorf("%T: %v", v, err)
		} else if !reflect.DeepEqual(back.Elem().Interface(), v) {
			t.Errorf("%T: round trip gave %+v, want %+v", v, back.Elem(), v)
		}
	}
}

// TestDecodeOverwrites: Decode sets every field, so a reused target keeps
// nothing of its previous message.
func TestDecodeOverwrites(t *testing.T) {
	m := populated()
	codec.MustDecode(codec.MustEncode(msg{}), &m)
	if !reflect.DeepEqual(m, msg{}) {
		t.Fatalf("decoding a zero message over a populated one left %+v", m)
	}
}

func TestPointerAndValueEncodeAlike(t *testing.T) {
	m := populated()
	a, b := codec.MustEncode(m), codec.MustEncode(&m)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding *T differs from encoding T")
	}
}

// TestDecodeRejects: every proper prefix of a message, and a message with
// a byte after it, is an error — there is no type information to resync
// on, so a frame is accepted whole or not at all.
func TestDecodeRejects(t *testing.T) {
	for _, v := range []any{populated(), populatedEvery()} {
		data := codec.MustEncode(v)
		for cut := 0; cut < len(data); cut++ {
			err := codec.Decode(data[:cut], reflect.New(reflect.TypeOf(v)).Interface())
			if !errors.Is(err, codec.ErrShort) {
				t.Fatalf("%T cut to %d of %d bytes: %v, want ErrShort", v, cut, len(data), err)
			}
		}
		err := codec.Decode(append(data, 0), reflect.New(reflect.TypeOf(v)).Interface())
		if !errors.Is(err, codec.ErrTrailing) {
			t.Errorf("%T with a trailing byte: %v, want ErrTrailing", v, err)
		}
	}
	for _, tc := range []struct {
		name   string
		data   string
		target any
	}{
		{"300 into a uint8", "ac 02", new(uint8)},
		{"128 into an int8", "80 02", new(int8)},
		{"-129 into an int8", "81 02", new(int8)},
		{"2 into a bool", "02", new(bool)},
		{"1<<32 into a uint32", "80 80 80 80 10", new(uint32)},
		{"an eleven-byte varint", "ff ff ff ff ff ff ff ff ff ff 01", new(uint64)},
	} {
		data, _ := hex.DecodeString(strings.ReplaceAll(tc.data, " ", ""))
		if err := codec.Decode(data, tc.target); !errors.Is(err, codec.ErrOverflow) {
			t.Errorf("%s: %v, want ErrOverflow", tc.name, err)
		}
	}
	data := codec.MustEncode(populated())
	if err := codec.Decode(data, msg{}); err == nil || !strings.Contains(err.Error(), "codec_test.msg") {
		t.Errorf("decoding into a non-pointer: %v, want an error naming its type", err)
	}
	if err := codec.Decode(data, nil); err == nil || !strings.Contains(err.Error(), "<nil>") {
		t.Errorf("decoding into nil: %v, want an error", err)
	}
	if err := codec.Decode(nil, (*msg)(nil)); err == nil {
		t.Error("decoding into a nil pointer succeeded")
	}
}

// request is a two-field control request, the shape of an n_sent
// message.
type request struct {
	DstQPN uint32
	NSent  uint64
}

// TestMessagesStayOnTheStack: neither encoding nor decoding keeps its
// argument, so a request built on the caller's stack costs its encoding
// buffer and nothing else, and decoding it into a stack value costs
// nothing.
func TestMessagesStayOnTheStack(t *testing.T) {
	var data []byte
	enc := testing.AllocsPerRun(1000, func() {
		data = codec.MustEncode(request{DstQPN: 0x1234, NSent: 321})
	})
	dec := testing.AllocsPerRun(1000, func() {
		var r request
		if err := codec.Decode(data, &r); err != nil || r != (request{0x1234, 321}) {
			t.Fatalf("decoded %+v, %v", r, err)
		}
	})
	if enc > 1 || dec > 0 {
		t.Fatalf("MustEncode allocates %.0f times and Decode %.0f; want the one buffer and none", enc, dec)
	}
}

// TestCountBeyondInputBuildsNothing: a count is checked against what is
// left of the input before a slice is made for it — a megabyte-sized
// count in a nine-byte frame costs nothing.
func TestCountBeyondInputBuildsNothing(t *testing.T) {
	data := append([]byte{0x80, 0x80, 0x40}, make([]byte, 6)...) // count 1<<20, six bytes follow
	for _, target := range []any{new([]inner), new([]byte), new(string), new([][]uint32)} {
		if err := codec.Decode(data, target); !errors.Is(err, codec.ErrShort) {
			t.Errorf("%T: %v, want ErrShort", target, err)
		}
		if n := built(reflect.ValueOf(target).Elem()); n != 0 {
			t.Errorf("%T: a refused count left %d elements behind", target, n)
		}
	}
}

// built counts the slice elements and string bytes v holds: what Decode
// allocated to build it.
func built(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.String:
		n = v.Len()
	case reflect.Slice:
		n = v.Len()
		for i := 0; i < v.Len(); i++ {
			n += built(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += built(v.Field(i))
		}
	}
	return n
}

func TestUnsupportedKinds(t *testing.T) {
	for _, v := range []any{
		struct{ V any }{}, struct{ M map[string]uint32 }{}, struct{ P *inner }{},
		struct{ F float64 }{}, struct{ A [4]byte }{}, []*inner{{ID: 1}}, nil, (*msg)(nil),
	} {
		if _, err := codec.Append(nil, v); err == nil || !strings.Contains(err.Error(), "unsupported kind") {
			t.Errorf("Encode(%T) = %v, want an unsupported-kind error", v, err)
		}
	}
	var withMap struct{ M map[string]uint32 }
	if err := codec.Decode([]byte{0}, &withMap); err == nil || !strings.Contains(err.Error(), "unsupported kind") {
		t.Errorf("Decode into a map field = %v, want an unsupported-kind error", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEncode of an unsupported kind did not panic")
		}
	}()
	codec.MustEncode(struct{ F float64 }{})
}

// TestConcurrentUse is the sim.RunIndexed case: independent simulations
// on separate goroutines share the package. Run under -race.
func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := populated()
				in.N = w*1000 + i
				var out msg
				if err := codec.Decode(codec.MustEncode(in), &out); err != nil || out.N != in.N || len(out.Raw) != 300 {
					t.Errorf("worker %d round %d: %+v, %v", w, i, out.N, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzDecode: arbitrary bytes never panic and never build more than a
// small multiple of their length; what decodes re-encodes to a message
// that decodes to the same value. The multiple: a value decoded whole
// holds no more elements than it took bytes, and where decoding fails
// there is one refused-or-unfinished count per level of slice nesting
// (three in every: List, Tags, the string), each within the input's
// length (testdata/fuzz/FuzzDecode/nested-counts is such an input).
func FuzzDecode(f *testing.F) {
	f.Add(codec.MustEncode(every{}))
	f.Add(codec.MustEncode(populatedEvery()))
	// One real message of each package that sends control messages, as
	// that package encodes it (the fuzzer only ever sees bytes), and two
	// valid encodings of messages no package sends any more.
	for _, seed := range []string{
		"026d31067365727665720364737402800280029b029b02",                       // core notifyReq
		"037372630480029b02b602d102",                                           // tenant attachReq
		"9b020280808080800218726e69633a20494e4954e2869252545220696e76616c6964", // perftest connectResp
		"02108080800180b5180880c2d72fc09a0c0401000100",                         // hdfs assignMsg
		"9b020280808080800c800100",                                             // a store's open reply (VQPN, rkey, address, slot count)
		"06636c69656e748002",                                                   // an RPC open request (node name, VQPN)
	} {
		data, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m every
		err := codec.Decode(data, &m)
		if n := built(reflect.ValueOf(m)); n > 4*len(data) {
			t.Fatalf("decoding %d bytes built %d elements", len(data), n)
		}
		if err != nil {
			return
		}
		var again every
		if err := codec.Decode(codec.MustEncode(m), &again); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded %+v decodes to %+v, %v", m, again, err)
		}
	})
}

// BenchmarkMessageRoundTrip: one two-field request encoded and decoded
// back, as TestMessagesStayOnTheStack counts it: one allocation, the
// encoding buffer.
func BenchmarkMessageRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		var r request
		if err := codec.Decode(codec.MustEncode(request{DstQPN: uint32(i), NSent: 321}), &r); err != nil {
			b.Fatal(err)
		}
	}
}
