// Package codectest holds the differential check every package with
// control messages runs over its own message types.
package codectest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"migrrdma/internal/codec"
)

// Differential asserts, for each value (a struct, not a pointer), that
// codec.Encode produces exactly the bytes of a fresh gob encoder, and
// that codec.Decode of those bytes — before and after a deliberately
// corrupted message of the same type — gives back what a fresh gob
// decoder gives.
func Differential(t *testing.T, values ...any) {
	t.Helper()
	for _, v := range values {
		typ := reflect.TypeOf(v)
		var fresh bytes.Buffer
		if err := gob.NewEncoder(&fresh).Encode(v); err != nil {
			t.Fatalf("%v: gob rejects %+v: %v", typ, v, err)
		}
		want := reflect.New(typ)
		if err := gob.NewDecoder(bytes.NewReader(fresh.Bytes())).DecodeValue(want); err != nil {
			t.Fatalf("%v: gob cannot decode its own stream: %v", typ, err)
		}
		// Twice: the first call may build the type's codec, the second
		// runs on the persistent encoder.
		for call := 1; call <= 2; call++ {
			got, err := codec.Encode(v)
			if err != nil {
				t.Fatalf("%v: codec.Encode: %v", typ, err)
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("%v call %d: codec bytes differ from fresh gob\n codec %x\n gob   %x", typ, call, got, fresh.Bytes())
			}
		}
		decode := func(when string) {
			got := reflect.New(typ)
			if err := codec.Decode(fresh.Bytes(), got.Interface()); err != nil {
				t.Fatalf("%v %s: codec.Decode: %v", typ, when, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
				t.Fatalf("%v %s: decoded %+v, gob decodes %+v", typ, when, got.Elem(), want.Elem())
			}
		}
		decode("first")
		decode("second")
		// Cut the stream inside its value message: the prefix still
		// matches, so the persistent decoder is the one that fails.
		cut := fresh.Bytes()[:fresh.Len()-1]
		if err := codec.Decode(cut, reflect.New(typ).Interface()); err == nil {
			t.Fatalf("%v: truncated message decoded without error", typ)
		}
		decode("after a corrupted message")
	}
}
