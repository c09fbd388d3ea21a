// Package codec is the one encoding of control-plane messages and
// checkpoint blobs: a message is its exported fields in declaration order.
//
//	signed integer    zigzag varint (encoding/binary's Varint)
//	unsigned integer  varint
//	bool              one byte, 0 or 1
//	string, []byte    varint length, then the bytes
//	other slice       varint count, then the elements
//	struct            its exported fields, inline
//
// Anything else — interface, map, pointer field, float, array — is an
// error when a value reaches it. There is no type information on the
// wire: both ends name the same Go type, and Decode rejects input that is
// too short, overflows a field or has bytes left over. Nothing outlives a
// call: concurrent simulations need no lock, and a message built on a
// caller's stack stays there (an error names its type, not the value).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

var ErrShort = errors.New("codec: input ends inside a value")
var ErrOverflow = errors.New("codec: integer overflows its field")
var ErrTrailing = errors.New("codec: bytes left over after the value")

// Append appends to b the encoding of v, a supported value or a pointer to one.
func Append(b []byte, v any) ([]byte, error) {
	return appendValue(b, reflect.Indirect(reflect.ValueOf(v)))
}

// Decode decodes all of data into v, which must be a non-nil pointer.
func Decode(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: cannot decode into %v, not a pointer", reflect.TypeOf(v))
	}
	r := reader{data: data}
	if r.value(rv.Elem()); r.err == nil && len(r.data) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}

// MustEncode returns the encoding of a message whose type is known to encode.
func MustEncode(v any) []byte {
	out, err := Append(make([]byte, 0, 64), v)
	if err != nil {
		panic(fmt.Sprintf("encode %v: %v", reflect.TypeOf(v), err))
	}
	return out
}

// MustDecode is Decode for replies from this program's own handlers.
func MustDecode(data []byte, v any) {
	if err := Decode(data, v); err != nil {
		panic(fmt.Sprintf("decode %v: %v", reflect.TypeOf(v), err))
	}
}

func appendValue(b []byte, v reflect.Value) (_ []byte, err error) {
	switch v.Kind() {
	case reflect.Bool:
		if b = append(b, 0); v.Bool() {
			b[len(b)-1] = 1
		}
		return b, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...), nil
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...), nil
		}
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = appendValue(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		for i := 0; i < v.NumField() && err == nil; i++ {
			// CanInterface is "exported", without Type.Field's allocation.
			if f := v.Field(i); f.CanInterface() {
				b, err = appendValue(b, f)
			}
		}
		return b, err
	}
	return nil, fmt.Errorf("codec: unsupported kind %s", v.Kind())
}

// reader consumes data from the front; after a failure every read is zero.
type reader struct {
	data []byte
	err  error
}

// uvarint reads one varint that must not exceed max.
func (r *reader) uvarint(max uint64) uint64 {
	switch u, n := binary.Uvarint(r.data); {
	case r.err != nil:
	case n == 0:
		r.err = ErrShort
	case n < 0 || u > max:
		r.err = ErrOverflow
	default:
		r.data = r.data[n:]
		return u
	}
	return 0
}

func (r *reader) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.uvarint(1) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Zigzag keeps an N-bit integer in N bits, so one bound serves both.
		u := r.uvarint(1<<v.Type().Bits() - 1)
		v.SetInt(int64(u>>1) ^ -int64(u&1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.uvarint(1<<v.Type().Bits() - 1))
	case reflect.String, reflect.Slice:
		// Every element takes a byte or more: refuse a count beyond the input.
		n := r.uvarint(^uint64(0))
		if n > uint64(len(r.data)) {
			n, r.err = 0, ErrShort
		}
		v.SetZero() // what is decoded below gets a fresh array
		switch {
		case v.Kind() == reflect.String:
			v.SetString(string(r.data[:n]))
		case v.Type().Elem().Kind() == reflect.Uint8:
			v.SetBytes(append([]byte(nil), r.data[:n]...))
		default: // Grow and SetLen, unlike Set(MakeSlice(…)), keep v off the heap
			v.Grow(int(n))
			v.SetLen(int(n))
			for i := 0; i < int(n); i++ {
				r.value(v.Index(i))
			}
			return
		}
		r.data = r.data[n:]
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				r.value(f)
			}
		}
	default:
		r.err = fmt.Errorf("codec: unsupported kind %s", v.Kind())
	}
}
