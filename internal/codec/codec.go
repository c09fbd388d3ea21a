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
// too short, overflows a field or has bytes left over. There is no state:
// nothing outlives a call, so concurrent simulations need no lock.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

var (
	ErrShort    = errors.New("codec: input ends inside a value")
	ErrOverflow = errors.New("codec: integer overflows its field")
	ErrTrailing = errors.New("codec: bytes left over after the value")
)

// Encode returns the encoding of v, a supported value or a pointer to one.
func Encode(v any) ([]byte, error) {
	return appendValue(make([]byte, 0, 64), reflect.Indirect(reflect.ValueOf(v)))
}

// Decode decodes all of data into v, which must be a non-nil pointer.
func Decode(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: cannot decode into %T, not a pointer", v)
	}
	r := reader{data: data}
	r.value(rv.Elem())
	if r.err == nil && len(r.data) != 0 {
		r.err = ErrTrailing
	}
	return r.err
}

// MustEncode is Encode for messages whose types are known to encode.
func MustEncode(v any) []byte {
	out, err := Encode(v)
	if err != nil {
		panic(fmt.Sprintf("encode %T: %v", v, err))
	}
	return out
}

// MustDecode is Decode for replies from this program's own handlers.
func MustDecode(data []byte, v any) {
	if err := Decode(data, v); err != nil {
		panic(fmt.Sprintf("decode %T: %v", v, err))
	}
}

func appendValue(b []byte, v reflect.Value) (_ []byte, err error) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
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
	u, n := binary.Uvarint(r.data)
	switch {
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
		// An element takes at least a byte (a struct with nothing exported
		// is no element type), so a count beyond the input cannot be
		// honest: refuse it before allocating for it.
		n := r.uvarint(^uint64(0))
		if n > uint64(len(r.data)) {
			n, r.err = 0, ErrShort
		}
		switch {
		case n == 0:
			v.SetZero()
		case v.Kind() == reflect.String:
			v.SetString(string(r.data[:n]))
			r.data = r.data[n:]
		case v.Type().Elem().Kind() == reflect.Uint8:
			v.SetBytes(append([]byte(nil), r.data[:n]...))
			r.data = r.data[n:]
		default:
			v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
			for i := 0; i < int(n); i++ {
				r.value(v.Index(i))
			}
		}
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
