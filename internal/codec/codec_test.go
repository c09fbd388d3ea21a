package codec_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"migrrdma/internal/codec"
	"migrrdma/internal/codec/codectest"
)

type inner struct {
	ID   uint64
	Tags []string
}

type msg struct {
	Name  string
	N     int
	In    inner
	List  []inner
	Index map[string]uint32
	Raw   []byte
}

type other struct{ Name string }

// withAny reaches an interface: gob sends the dynamic type's definition
// the first time a value carries it, so such a type has no fixed prefix.
type withAny struct {
	Name string
	V    any
}

func populated() msg {
	return msg{
		Name: "m1", N: -7, In: inner{ID: 9, Tags: []string{"a", "b"}},
		List:  []inner{{ID: 1}, {ID: 2, Tags: []string{"x"}}},
		Index: map[string]uint32{"k": 3},
		Raw:   bytes.Repeat([]byte{0xAB}, 300),
	}
}

func TestDifferential(t *testing.T) {
	codectest.Differential(t, msg{}, populated(), inner{}, other{Name: "o"}, "bare string", []uint32{1, 2, 3})
}

func TestPointerAndValueEncodeAlike(t *testing.T) {
	m := populated()
	a, b := codec.MustEncode(m), codec.MustEncode(&m)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding *T differs from encoding T")
	}
}

func TestDecodeForeignStream(t *testing.T) {
	// A stream of another type does not carry msg's prefix; the fresh
	// decoder handles it the way gob always has (matching field names).
	var m msg
	if err := codec.Decode(codec.MustEncode(other{Name: "o"}), &m); err != nil || m.Name != "o" {
		t.Fatalf("decode of a compatible foreign stream: %+v, %v", m, err)
	}
	if err := codec.Decode([]byte{0xFF, 0x00}, &m); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestInterfaceFieldsTakeTheFreshPath(t *testing.T) {
	gob.Register(inner{})
	for i, v := range []withAny{{Name: "a", V: inner{ID: 1}}, {Name: "b", V: inner{ID: 2}}, {Name: "c"}} {
		var fresh bytes.Buffer
		if err := gob.NewEncoder(&fresh).Encode(v); err != nil {
			t.Fatal(err)
		}
		got := codec.MustEncode(v)
		if !bytes.Equal(got, fresh.Bytes()) {
			t.Fatalf("value %d: bytes differ from fresh gob", i)
		}
		var back withAny
		codec.MustDecode(got, &back)
		if fmt.Sprint(back) != fmt.Sprint(v) {
			t.Fatalf("value %d: round trip gave %+v, want %+v", i, back, v)
		}
	}
}

func TestEncodeErrorLeavesCodecUsable(t *testing.T) {
	// The zero value encodes, so the type gets a codec; a nil element is
	// rejected by gob mid-message, which costs the codec its encoder.
	type ptrs struct{ P []*inner }
	good := ptrs{P: []*inner{{ID: 1}}}
	codectest.Differential(t, good)
	if _, err := codec.Encode(ptrs{P: []*inner{nil}}); err == nil {
		t.Fatal("encoding a nil slice element succeeded")
	}
	codectest.Differential(t, good)
}

// TestConcurrentUse is the sim.RunIndexed case: independent simulations
// on separate goroutines share the per-type codecs. Run under -race.
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
