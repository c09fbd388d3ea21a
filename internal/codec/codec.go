// Package codec is the one encoding of control-plane messages and
// checkpoint blobs: encoding/gob, byte for byte, without gob's per-message
// set-up cost.
//
// A fresh gob.Encoder opens every stream with the type definitions of
// what it sends, and a fresh gob.Decoder compiles a decode engine from
// them; a control message is a stream of its own, so both happen once per
// message. This package keeps one encoder and one decoder per Go type
// alive instead. It learns the definition prefix a fresh encoder emits for
// the type, emits prefix + value message, and strips the prefix again
// before handing a message to the persistent decoder. The bytes — and so
// every frame size and every simulated transfer time — are exactly those
// of gob.NewEncoder(&b).Encode(v).
package codec

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
)

// Encode returns the gob encoding of v as a self-contained stream.
func Encode(v any) ([]byte, error) {
	if tc := codecFor(reflect.TypeOf(v)); tc != nil {
		if out, ok := tc.encode(v); ok {
			return out, nil
		}
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Decode decodes a stream produced by Encode (or by any gob encoder)
// into v, which must be a pointer.
func Decode(data []byte, v any) error {
	if tc := codecFor(reflect.TypeOf(v)); tc != nil && tc.decode(data, v) {
		return nil
	}
	// Not this type's stream, or the persistent decoder failed on it: a
	// fresh decoder gives the answer, and the error, gob itself gives.
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// MustEncode is Encode for messages whose types are known to encode; it
// panics on error.
func MustEncode(v any) []byte {
	out, err := Encode(v)
	if err != nil {
		panic("codec: encode " + reflect.TypeOf(v).String() + ": " + err.Error())
	}
	return out
}

// MustDecode is Decode for replies from this program's own handlers; it
// panics on error.
func MustDecode(data []byte, v any) {
	if err := Decode(data, v); err != nil {
		panic("codec: decode " + reflect.TypeOf(v).String() + ": " + err.Error())
	}
}

// typeCodec is the persistent state for one Go type. Independent
// simulations share it across goroutines (sim.RunIndexed), hence the
// lock; nothing of a message outlives the call that handles it.
type typeCodec struct {
	mu sync.Mutex
	t  reflect.Type
	// prefix is what a fresh encoder writes before the first value
	// message of this type: the type-definition messages.
	prefix []byte
	// primer is a complete stream (prefix plus a zero value) that brings a
	// new decoder to the state a decoder is in once it has read prefix.
	primer []byte

	enc *gob.Encoder // writes to buf; has already sent the definitions
	buf bytes.Buffer
	dec *gob.Decoder // reads from rd; has already read the definitions
	rd  bytes.Reader
}

// codecs maps a base type to its *typeCodec, or to nil when the type
// must take the fresh path.
var codecs sync.Map

// codecFor returns the codec of v's type with pointers stripped (gob
// encodes *T as T), or nil if there is none.
func codecFor(t reflect.Type) *typeCodec {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return nil
	}
	if c, ok := codecs.Load(t); ok {
		return c.(*typeCodec)
	}
	c, _ := codecs.LoadOrStore(t, newTypeCodec(t))
	return c.(*typeCodec)
}

// newTypeCodec learns t's definition prefix. It returns a nil codec for a
// type whose stream is not "fixed prefix, then one value message": one
// that reaches an interface (gob sends the dynamic type's definition
// when a value first carries it, so the prefix would depend on history),
// or one gob cannot encode at all.
func newTypeCodec(t reflect.Type) *typeCodec {
	if reachesInterface(t, map[reflect.Type]bool{}) {
		return nil
	}
	tc := &typeCodec{t: t}
	// A new encoder's first Encode writes definitions and value, its
	// second the value alone: the difference is the prefix.
	if !tc.newEncoder() {
		return nil
	}
	tc.primer = bytes.Clone(tc.buf.Bytes())
	tc.buf.Reset()
	if tc.enc.EncodeValue(reflect.New(t).Elem()) != nil || !bytes.HasSuffix(tc.primer, tc.buf.Bytes()) {
		return nil
	}
	tc.prefix = tc.primer[:len(tc.primer)-tc.buf.Len()]
	return tc
}

// newEncoder gives tc an encoder that has sent the type's definitions:
// it encodes one zero value, which it leaves in buf.
func (tc *typeCodec) newEncoder() bool {
	tc.buf.Reset()
	tc.enc = gob.NewEncoder(&tc.buf)
	if tc.enc.EncodeValue(reflect.New(tc.t).Elem()) != nil {
		tc.enc = nil
	}
	return tc.enc != nil
}

// reachesInterface reports whether a value of type t can hold an
// interface value.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && reachesInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// encode writes prefix + value message. It reports false, having dropped
// the encoder, if gob rejects v; the caller's fresh encoder then reports
// the error.
func (tc *typeCodec) encode(v any) ([]byte, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// The previous encoder may have failed mid-message and been dropped.
	if tc.enc == nil && !tc.newEncoder() {
		return nil, false
	}
	tc.buf.Reset()
	tc.buf.Write(tc.prefix)
	if tc.enc.Encode(v) != nil {
		tc.enc = nil
		return nil, false
	}
	return bytes.Clone(tc.buf.Bytes()), true
}

// decode strips the prefix and feeds the rest to the persistent decoder.
// It reports false if data does not open with this type's prefix or the
// decoder fails; a decoder that failed may hold half a message, so it is
// dropped and rebuilt on the next call.
func (tc *typeCodec) decode(data []byte, v any) bool {
	if !bytes.HasPrefix(data, tc.prefix) {
		return false
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dec == nil {
		tc.rd.Reset(tc.primer)
		dec := gob.NewDecoder(&tc.rd)
		if dec.DecodeValue(reflect.New(tc.t)) != nil {
			return false
		}
		tc.dec = dec
	}
	tc.rd.Reset(data[len(tc.prefix):])
	if tc.dec.Decode(v) != nil {
		tc.dec = nil
		return false
	}
	return true
}
