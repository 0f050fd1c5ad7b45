package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// The wire codec. RegisterMessage compiles each message type once into
// an encode and a decode function, one step per field; the TCP
// transport frames every request and reply with them, and the store
// every WAL and snapshot record. A message travels
// as its registered name (its %T) followed by its fields in declaration
// order:
//
//   - bool, unsigned integers: uvarint (a bool is 0 or 1);
//   - signed integers: zig-zag uvarint;
//   - floats: the uvarint of the float64's bits;
//   - strings and []byte: uvarint length, then the bytes;
//   - slices and maps: uvarint count, then the elements (a map's as
//     key, value pairs); an empty one decodes as nil;
//   - arrays: the elements; structs: the fields;
//   - Message (empty interface) values: the registered name of the
//     dynamic type, then its encoding; nil is the empty name.
//
// Nothing on the wire names a codec version, so every peer of a ring
// must run the same build.

// maxDepth bounds how deeply Message values nest inside each other on
// the wire (a TransferResp's service state is two deep), so hostile
// input cannot recurse the decoder off its stack.
const maxDepth = 16

var errMalformed = errors.New("network: malformed wire message")

// codec is the compiled wire form of one Go type.
type codec struct {
	enc func(e *encoder, v reflect.Value)
	dec func(d *decoder, v reflect.Value) error // v is settable
	min int                                     // bytes the shortest value encodes to
}

// wireType is one registered message type.
type wireType struct {
	typ   reflect.Type
	label []byte // the name as it goes on the wire
	codec *codec
}

// wireRegistry maps message types to and from their wire names. It is
// replaced, never mutated, so the codec reads it without locking.
type wireRegistry struct {
	byName map[string]*wireType
	byType map[reflect.Type]*wireType
}

var (
	wireMu   sync.Mutex                   // serializes registration
	compiled = map[reflect.Type]*codec{}  // every type compiled so far; under wireMu
	wireReg  atomic.Pointer[wireRegistry] // the current registry
)

func init() { wireReg.Store(&wireRegistry{}) }

// registerWire compiles v's type and enters it under its %T name. It
// reports false when the type is registered already, and panics on a
// kind the codec does not carry or on a name another type holds.
func registerWire(v Message) bool {
	t := reflect.TypeOf(v)
	if t == nil {
		panic("network: RegisterMessage of a nil message")
	}
	name := t.String()
	wireMu.Lock()
	defer wireMu.Unlock()
	cur := wireReg.Load()
	if w := cur.byName[name]; w != nil {
		if w.typ != t {
			panic(fmt.Sprintf("network: message name %q is taken by another type", name))
		}
		return false
	}
	w := &wireType{typ: t, label: AppendString(nil, name), codec: compile(t, map[reflect.Type]bool{})}
	next := &wireRegistry{byName: maps.Clone(cur.byName), byType: maps.Clone(cur.byType)}
	if next.byName == nil {
		next.byName, next.byType = map[string]*wireType{}, map[reflect.Type]*wireType{}
	}
	next.byName[name], next.byType[t] = w, w
	wireReg.Store(next)
	return true
}

// compile returns t's codec; open holds the types being compiled around
// it, to refuse recursive types. The caller holds wireMu.
func compile(t reflect.Type, open map[reflect.Type]bool) *codec {
	if c := compiled[t]; c != nil {
		return c
	}
	if open[t] {
		panic(fmt.Sprintf("network: message type %v is recursive", t))
	}
	open[t] = true
	defer delete(open, t)
	c := compileKind(t, open)
	compiled[t] = c
	return c
}

func compileKind(t reflect.Type, open map[reflect.Type]bool) *codec {
	switch t.Kind() {
	case reflect.Bool:
		return scalar(func(v reflect.Value) uint64 {
			if v.Bool() {
				return 1
			}
			return 0
		}, func(v reflect.Value, x uint64) bool {
			v.SetBool(x == 1)
			return x <= 1
		})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return scalar(func(v reflect.Value) uint64 {
			i := v.Int()
			return uint64(i<<1) ^ uint64(i>>63) // zig-zag
		}, func(v reflect.Value, x uint64) bool {
			i := int64(x>>1) ^ -int64(x&1)
			if v.OverflowInt(i) {
				return false
			}
			v.SetInt(i)
			return true
		})
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return scalar(reflect.Value.Uint, func(v reflect.Value, x uint64) bool {
			if v.OverflowUint(x) {
				return false
			}
			v.SetUint(x)
			return true
		})
	case reflect.Float32, reflect.Float64:
		return scalar(func(v reflect.Value) uint64 {
			return math.Float64bits(v.Float())
		}, func(v reflect.Value, x uint64) bool {
			f := math.Float64frombits(x)
			if v.OverflowFloat(f) {
				return false
			}
			v.SetFloat(f)
			return true
		})
	case reflect.String:
		return &codec{min: 1,
			enc: func(e *encoder, v reflect.Value) { e.b = AppendString(e.b, v.String()) },
			dec: func(d *decoder, v reflect.Value) error {
				b, err := d.bytes()
				v.SetString(string(b))
				return err
			}}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return &codec{min: 1,
				enc: func(e *encoder, v reflect.Value) {
					b := v.Bytes()
					e.b = append(binary.AppendUvarint(e.b, uint64(len(b))), b...)
				},
				dec: func(d *decoder, v reflect.Value) error {
					b, err := d.bytes()
					if len(b) == 0 {
						v.SetZero()
					} else {
						// A copy: the frame buffer is reused, and stores keep what they are sent.
						v.SetBytes(bytes.Clone(b))
					}
					return err
				}}
		}
		elem := compile(t.Elem(), open)
		return &codec{min: 1,
			enc: func(e *encoder, v reflect.Value) {
				n := v.Len()
				e.b = binary.AppendUvarint(e.b, uint64(n))
				for i := range n {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *decoder, v reflect.Value) error {
				n, err := d.count(elem.min)
				if err != nil || n == 0 {
					v.SetZero()
					return err
				}
				s := reflect.MakeSlice(t, n, n)
				for i := range n {
					if err := elem.dec(d, s.Index(i)); err != nil {
						return err
					}
				}
				v.Set(s)
				return nil
			}}
	case reflect.Array:
		elem := compile(t.Elem(), open)
		n := t.Len()
		return &codec{min: n * elem.min,
			enc: func(e *encoder, v reflect.Value) {
				for i := range n {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *decoder, v reflect.Value) error {
				for i := range n {
					if err := elem.dec(d, v.Index(i)); err != nil {
						return err
					}
				}
				return nil
			}}
	case reflect.Map:
		key, val := compile(t.Key(), open), compile(t.Elem(), open)
		return &codec{min: 1,
			enc: func(e *encoder, v reflect.Value) {
				e.b = binary.AppendUvarint(e.b, uint64(v.Len()))
				for it := v.MapRange(); it.Next(); {
					key.enc(e, it.Key())
					val.enc(e, it.Value())
				}
			},
			dec: func(d *decoder, v reflect.Value) error {
				n, err := d.count(key.min + val.min)
				if err != nil || n == 0 {
					v.SetZero()
					return err
				}
				m := reflect.MakeMapWithSize(t, n)
				// Every decode overwrites the whole value, so one
				// key and one element serve all the entries.
				k, x := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				for range n {
					if err := key.dec(d, k); err != nil {
						return err
					}
					if err := val.dec(d, x); err != nil {
						return err
					}
					m.SetMapIndex(k, x)
				}
				v.Set(m)
				return nil
			}}
	case reflect.Struct:
		fields := make([]*codec, t.NumField())
		size := 0
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("network: message type %v has unexported field %s", t, f.Name))
			}
			fields[i] = compile(f.Type, open)
			size += fields[i].min
		}
		return &codec{min: size,
			enc: func(e *encoder, v reflect.Value) {
				for i, f := range fields {
					f.enc(e, v.Field(i))
				}
			},
			dec: func(d *decoder, v reflect.Value) error {
				for i, f := range fields {
					if err := f.dec(d, v.Field(i)); err != nil {
						return err
					}
				}
				return nil
			}}
	case reflect.Interface:
		if t.NumMethod() == 0 {
			return &codec{min: 1,
				enc: func(e *encoder, v reflect.Value) { e.message(v.Elem()) },
				dec: func(d *decoder, v reflect.Value) error { return d.message(v) },
			}
		}
	}
	panic(fmt.Sprintf("network: message type %v: the wire codec does not carry %v", t, t.Kind()))
}

// scalar builds the codec of a kind that travels as one uvarint: get
// maps a value to it, and set stores it back, reporting false when it is
// out of the kind's range.
func scalar(get func(reflect.Value) uint64, set func(reflect.Value, uint64) bool) *codec {
	return &codec{min: 1,
		enc: func(e *encoder, v reflect.Value) { e.b = binary.AppendUvarint(e.b, get(v)) },
		dec: func(d *decoder, v reflect.Value) error {
			x, n := binary.Uvarint(d.b)
			if n <= 0 || !set(v, x) {
				return fmt.Errorf("%w: bad %v", errMalformed, v.Type())
			}
			d.b = d.b[n:]
			return nil
		}}
}

// AppendString appends s in its wire form: a uvarint length, then the bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// CutString decodes a string in the form AppendString writes from the
// front of b, and returns it with the bytes that follow.
func CutString(b []byte) (s string, rest []byte, err error) {
	d := decoder{b: b}
	raw, err := d.bytes()
	return string(raw), d.b, err
}

// AppendMessage appends m's wire form to b. It fails, returning b as it
// was, if m or a Message nested in it is of a type that was never
// registered.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	e := encoder{b: b}
	e.message(reflect.ValueOf(m))
	if e.err != nil {
		return b, e.err
	}
	return e.b, nil
}

// DecodeMessage decodes a message whose wire form is exactly b. The
// result shares no memory with b.
func DecodeMessage(b []byte) (Message, error) {
	d := decoder{b: b}
	var m Message
	if err := d.message(reflect.ValueOf(&m).Elem()); err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the message", errMalformed, len(d.b))
	}
	return m, nil
}

type encoder struct {
	b     []byte
	depth int   // Messages open around the one being encoded
	err   error // the first failure; what is encoded after it is garbage
}

// message appends a registered name and the value of that type; an
// invalid v (a nil Message) appends the empty name.
func (e *encoder) message(v reflect.Value) {
	if e.err != nil {
		return
	}
	if !v.IsValid() {
		e.b = append(e.b, 0)
		return
	}
	w := wireReg.Load().byType[v.Type()]
	if w == nil {
		e.err = fmt.Errorf("network: message type %v is not registered", v.Type())
		return
	}
	if e.depth == maxDepth {
		e.err = fmt.Errorf("network: messages nest deeper than %d", maxDepth)
		return
	}
	e.b = append(e.b, w.label...)
	e.depth++
	w.codec.enc(e, v)
	e.depth--
}

type decoder struct {
	b     []byte // what is left to decode
	depth int    // Messages open around the one being decoded
}

// count reads an element count and checks it against the bytes left,
// given that one element takes at least each bytes (and at least one),
// so a hostile count can make the decoder neither allocate nor loop
// beyond what the input holds.
func (d *decoder) count(each int) (int, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad count", errMalformed)
	}
	d.b = d.b[n:]
	if x > uint64(len(d.b)/max(each, 1)) {
		return 0, fmt.Errorf("%w: count %d overruns the %d bytes left", errMalformed, x, len(d.b))
	}
	return int(x), nil
}

// bytes reads a length-prefixed run of bytes; the result aliases the input.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, nil
}

// message decodes a registered name and a value of that type into the
// settable Message v.
func (d *decoder) message(v reflect.Value) error {
	name, err := d.bytes()
	if err != nil {
		return err
	}
	if len(name) == 0 {
		v.SetZero()
		return nil
	}
	w := wireReg.Load().byName[string(name)]
	if w == nil {
		return fmt.Errorf("%w: unregistered message type %q", errMalformed, name)
	}
	if d.depth == maxDepth {
		return fmt.Errorf("%w: messages nest deeper than %d", errMalformed, maxDepth)
	}
	x := reflect.New(w.typ).Elem()
	d.depth++
	err = w.codec.dec(d, x)
	d.depth--
	if err != nil {
		return err
	}
	v.Set(x)
	return nil
}
