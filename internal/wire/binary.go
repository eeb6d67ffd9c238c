package wire

// This file implements the self-describing binary fast path of the codec.
//
// Frame layout (see codec.go for the stream framing):
//
//	frame := uvarint(len(body)) body
//	body  := uvarint(tag) rest
//
//	tag 0 (gob):  rest = one self-contained gob stream encoding the whole
//	              Message — the fallback for payload types without a
//	              registered binary codec. Every payload type of this tree
//	              has one; the path stays as the reference the differential
//	              tests and the fuzzer decode every binary frame's twin
//	              through (and carries a new type until it gets a codec).
//	tag 1 (nil):  rest = string(From) string(To); the payload is nil.
//	tag >= 8:     rest = string(From) string(To) payload, where the payload
//	              encoding is owned by the codec registered for the tag. A
//	              payload type has exactly one tag; a type with optional
//	              fields says inside its own encoding which are present
//	              (see internal/replica/binary.go).
//
// Primitive encodings: uvarint is encoding/binary's unsigned varint,
// required to be minimal-length; string and byte-slice are uvarint(len)
// followed by the raw bytes; bool is a single 0/1 byte. A decoder reads a
// string field with Reader.String or, for names that repeat from frame to
// frame, Reader.Ident, which shares them through a small per-stream intern
// table — a decode-side choice the bytes on the wire do not show. The
// decoder rejects non-minimal varints, out-of-range bools and trailing
// bytes, and payload codecs reject whatever else their encoder never
// writes, so every decodable binary frame re-encodes to the identical byte
// string — the property the differential fuzzer pins down.
//
// Every codec of the tree is installed with Register[T], which also
// registers the type's gob twin, and decodes through the one frame reader,
// Reader: the first error sticks, later reads return zero values, and the
// decoder's result is dropped for that one error. A decoder states its own
// refusals with Reader.Fail, and reads every slice length with
// Reader.Count, which refuses a count beyond the bytes left in the frame
// before anything is sized by it.
//
// Nested payloads (the Payload any fields of gcs.Submit and gcs.Ordered)
// recurse with the same tagging through Buffer.Any / Reader.Any; an
// unregistered nested payload becomes a length-prefixed gob blob without
// forcing the enclosing message off the fast path.
//
// Tag ranges are assigned statically so both ends of a connection agree
// without negotiation:
//
//	 0– 7  reserved (gob fallback, nil payload)
//	10–19  internal/gcs (10–18: submit, ordered, nack, heartbeat, propose,
//	       sync request/response, snapshot, hint)
//	20–29  internal/replica (20 request, 21 reply; 27, the migration chunk
//	       of live resharding, is retired and decodes as an unknown tag)
//	30–39  internal/adets (30 timeout, 31 LSA table update)

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

const (
	tagGob uint64 = 0
	tagNil uint64 = 1
	// TagUserMin is the lowest tag value available to payload codecs.
	TagUserMin uint64 = 8
)

type binaryCodec struct {
	tag uint64
	typ reflect.Type
	enc func(*Buffer, any) error
	dec func(*Reader) any // nil once the Reader has failed
}

var (
	binByType = map[reflect.Type]*binaryCodec{}
	binByTag  = map[uint64]*binaryCodec{}
)

// Register installs T's two codecs: the binary one under tag, and the gob
// twin (RegisterPayload) the differential tests and the fuzzer hold it
// against. Call it from an init function (registration is not
// synchronized); a reserved tag, or a second codec for a tag or a type,
// panics. enc receives a value of exactly T; dec must consume exactly the
// bytes enc produced, reading them through r, and what it returns is
// dropped, for r's error, once a read has failed.
func Register[T any](tag uint64, enc func(*Buffer, T) error, dec func(r *Reader) T) {
	var prototype T
	RegisterPayload(prototype)
	if tag < TagUserMin {
		panic(fmt.Sprintf("wire: binary payload tag %d is reserved", tag))
	}
	t := reflect.TypeOf(prototype)
	if _, dup := binByTag[tag]; dup {
		panic(fmt.Sprintf("wire: binary payload tag %d registered twice", tag))
	}
	if _, dup := binByType[t]; dup {
		panic(fmt.Sprintf("wire: binary payload type %v registered twice", t))
	}
	c := &binaryCodec{tag: tag, typ: t,
		enc: func(b *Buffer, v any) error { return enc(b, v.(T)) },
		dec: func(r *Reader) any {
			if v := dec(r); r.err == nil {
				return v
			}
			return nil
		}}
	binByTag[tag] = c
	binByType[t] = c
}

// uvarintLen returns the number of bytes of the minimal uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- encode side ---

// Buffer accumulates the binary encoding of one frame body. Buffers are
// pooled; obtain them through the codec entry points, not directly.
type Buffer struct {
	b []byte
}

var bufferPool = sync.Pool{New: func() any { return &Buffer{b: make([]byte, 0, 512)} }}

func getBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.b = b.b[:0]
	return b
}

func putBuffer(b *Buffer) {
	if cap(b.b) > maxPooledBuf {
		return // let oversized one-off frames be collected
	}
	bufferPool.Put(b)
}

// maxPooledBuf bounds the capacity of buffers returned to the pool so one
// huge frame does not pin its allocation forever.
const maxPooledBuf = 1 << 20

// Write implements io.Writer (gob fallback encodes straight into the
// frame buffer).
func (b *Buffer) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

// Uvarint appends v as a minimal unsigned varint.
func (b *Buffer) Uvarint(v uint64) {
	b.b = binary.AppendUvarint(b.b, v)
}

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.b = binary.AppendUvarint(b.b, uint64(len(s)))
	b.b = append(b.b, s...)
}

// Bytes appends a length-prefixed byte slice (nil and empty encode
// identically, like gob).
func (b *Buffer) Bytes(p []byte) {
	b.b = binary.AppendUvarint(b.b, uint64(len(p)))
	b.b = append(b.b, p...)
}

// Byte appends one raw byte.
func (b *Buffer) Byte(c byte) {
	b.b = append(b.b, c)
}

// Bool appends a bool as one 0/1 byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.b = append(b.b, 1)
	} else {
		b.b = append(b.b, 0)
	}
}

// Any appends a nested payload: its tag, then its encoding. Unregistered
// payloads become a length-prefixed self-contained gob blob.
func (b *Buffer) Any(v any) error {
	if v == nil {
		b.Uvarint(tagNil)
		return nil
	}
	if c, ok := binByType[reflect.TypeOf(v)]; ok {
		b.Uvarint(c.tag)
		return c.enc(b, v)
	}
	b.Uvarint(tagGob)
	// gob takes the value's address; taking v's own would move the
	// parameter to the heap on every call, fast path included.
	gv := v
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&gv); err != nil {
		return fmt.Errorf("wire: gob-encode nested %T: %w", v, err)
	}
	b.Bytes(blob.Bytes())
	return nil
}

// Append appends to dst what fn writes through a Buffer: the entry point for
// a blob that is not a frame (a checkpoint envelope, a shard table) but is
// written in a frame's primitives. Size dst to spare the copies of growing.
func Append(dst []byte, fn func(*Buffer)) []byte {
	b := Buffer{b: dst}
	fn(&b)
	return b.b
}

// appendBody encodes m's frame body (everything after the length header).
func appendBody(b *Buffer, m *Message) error {
	if m.Payload == nil {
		b.Uvarint(tagNil)
		b.String(string(m.From))
		b.String(string(m.To))
		return nil
	}
	c, ok := binByType[reflect.TypeOf(m.Payload)]
	if !ok {
		b.Uvarint(tagGob)
		// gob gets a copy: handing it m would make every caller's message
		// escape, whichever branch runs.
		gm := *m
		if err := gob.NewEncoder(b).Encode(&gm); err != nil {
			return fmt.Errorf("wire: gob-encode message with %T payload: %w", m.Payload, err)
		}
		return nil
	}
	b.Uvarint(c.tag)
	b.String(string(m.From))
	b.String(string(m.To))
	return c.enc(b, m.Payload)
}

// AppendMessage appends one complete encoded frame for m to dst and
// returns the extended slice. It is the allocation-free encoder the TCP
// transport's writer appends each burst with; the benchmarks use it too.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	body := getBuffer()
	defer putBuffer(body)
	if err := appendBody(body, m); err != nil {
		return dst, err
	}
	if len(body.b) > maxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body.b))
	}
	dst = binary.AppendUvarint(dst, uint64(len(body.b)))
	return append(dst, body.b...), nil
}

// AppendMessageGob is AppendMessage with the binary fast path disabled:
// the frame always takes the gob fallback. It exists for the codec
// benchmarks and the differential fuzzer, which compare the two paths.
func AppendMessageGob(dst []byte, m *Message) ([]byte, error) {
	body := getBuffer()
	defer putBuffer(body)
	body.Uvarint(tagGob)
	if err := gob.NewEncoder(body).Encode(m); err != nil {
		return dst, fmt.Errorf("wire: gob-encode message: %w", err)
	}
	if len(body.b) > maxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body.b))
	}
	dst = binary.AppendUvarint(dst, uint64(len(body.b)))
	return append(dst, body.b...), nil
}

// --- decode side ---

// Reader is the one frame reader of the tree: every payload codec decodes
// its fields through it, in order. All reads are bounds-checked, and the
// first error sticks: every later read returns the zero value, so a decoder
// reads straight through without a branch per field, and the frame is
// refused with that one error.
type Reader struct {
	b      []byte
	off    int
	err    error
	sawGob bool // a gob fallback was taken somewhere in this frame
	// idents is the intern table of the stream this frame came from; nil
	// when the frame is decoded on its own (ConsumeMessage).
	idents map[string]string
}

// Caps of a stream's intern table. Node, group and method names are a few
// dozen short strings per connection; anything longer than maxIdentLen is
// not an identifier worth sharing, and a table that reaches maxIdents
// entries (a peer cycling through names, or a hostile one) starts over, so
// a Decoder never holds more than maxIdents*maxIdentLen bytes of them.
const (
	maxIdents   = 256
	maxIdentLen = 64
)

// Fail refuses the frame with err unless an earlier error already did: a
// decoder's own verdicts (an undefined presence bit, a value outside its
// enum) stick like a failed read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes left in the frame.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n <= 0:
		r.err = fmt.Errorf("wire: truncated or overlong varint at offset %d", r.off)
		return 0
	case n != uvarintLen(v):
		r.err = fmt.Errorf("wire: non-minimal varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads the length of a slice of what whose elements each take at
// least least bytes in the frame: a count whose elements could not fit in
// the bytes left is refused before anything is sized by it.
func (r *Reader) Count(what string, least int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()/least) {
		r.err = fmt.Errorf("wire: %s count %d exceeds frame", what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Elems reads a count of what, each element at least least bytes in the
// frame (see Count), and decodes that many with dec, stopping at the first
// error. No count, or a count of zero, is a nil slice. An element takes
// fewer bytes in the frame than in memory, so a count that fits the frame
// can still ask for many times its size: room is made up front for no more
// elements than the bytes left would fill, and past that the slice grows
// with the elements that really decode.
func Elems[T any](r *Reader, what string, least int, dec func(*Reader) T) []T {
	n := r.Count(what, least)
	if n == 0 {
		return nil
	}
	size := max(int(reflect.TypeFor[T]().Size()), 1)
	s := make([]T, 0, min(n, r.Remaining()/size+1))
	for ; n > 0 && r.err == nil; n-- {
		s = append(s, dec(r))
	}
	return s
}

// span reads a length prefix and returns the bytes it covers — a window
// into the frame buffer, for the caller to copy.
func (r *Reader) span(what string) []byte {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.Remaining()) {
		r.err = fmt.Errorf("wire: %s of %d bytes exceeds remaining %d", what, n, r.Remaining())
	}
	if r.err != nil {
		return nil
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return raw
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.span("string")) }

// Ident reads a length-prefixed string that names something long-lived — a
// node, a group, a method, a mutex — and so repeats from frame to frame. On
// a stream Decoder the result is interned: every occurrence after the first
// is the same string, found without allocating. Fields that differ per
// request (message names, logical thread ids, shard keys) belong to String;
// routed through here they would only churn the table. Like String, the
// result never aliases the frame buffer.
func (r *Reader) Ident() string {
	raw := r.span("string")
	if r.err != nil || r.idents == nil || len(raw) > maxIdentLen {
		return string(raw)
	}
	if s, ok := r.idents[string(raw)]; ok { // the lookup does not allocate
		return s
	}
	if len(r.idents) >= maxIdents {
		clear(r.idents)
	}
	s := string(raw)
	r.idents[s] = s
	return s
}

// Bytes reads a length-prefixed byte slice. The result is a copy, never an
// alias of the (pooled) frame buffer; zero length decodes as nil.
func (r *Reader) Bytes() []byte {
	raw := r.span("byte slice")
	if len(raw) == 0 {
		return nil
	}
	return append([]byte(nil), raw...)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err == nil && r.Remaining() < 1 {
		r.err = fmt.Errorf("wire: unexpected end of frame at offset %d", r.off)
	}
	if r.err != nil {
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail(fmt.Errorf("wire: invalid bool byte %#x", c))
	}
	return c == 1
}

// Any reads a nested payload written by Buffer.Any.
func (r *Reader) Any() any {
	tag := r.Uvarint()
	switch {
	case r.err != nil || tag == tagNil:
		return nil
	case tag == tagGob:
		r.sawGob = true
		blob := r.Bytes()
		var v any
		if r.err == nil {
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&v); err != nil {
				r.Fail(fmt.Errorf("wire: gob-decode nested payload: %w", err))
			}
		}
		return v
	}
	c, ok := binByTag[tag]
	if !ok {
		r.Fail(fmt.Errorf("wire: unknown nested payload tag %d", tag))
		return nil
	}
	return c.dec(r)
}

// Decode reads a blob written by Append through fn: the first error a read
// or fn's Fail met, or bytes fn left unread, refuse it. A fn that refuses
// what its encoder never writes thus decodes only canonical blobs.
func Decode(data []byte, fn func(*Reader)) error {
	r := Reader{b: data}
	fn(&r)
	if r.err == nil && r.Remaining() != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return r.err
}

// parseBody decodes the frame body r holds. It reports (via binaryClean)
// whether the whole frame took the binary fast path — no gob fallback at any
// nesting level — which is when byte-identical re-encoding is guaranteed.
func parseBody(r *Reader, m *Message) (binaryClean bool, err error) {
	tag := r.Uvarint()
	if r.err == nil && tag == tagGob {
		// gob decodes into a local: handing it m would make every caller's
		// message escape, whichever branch runs.
		var gm Message
		if err := gob.NewDecoder(bytes.NewReader(r.b[r.off:])).Decode(&gm); err != nil {
			return false, fmt.Errorf("wire: decode message: %w", err)
		}
		*m = gm
		return false, nil
	}
	from, to := r.Ident(), r.Ident()
	var payload any
	if r.err == nil && tag != tagNil {
		c, ok := binByTag[tag]
		if !ok {
			return false, fmt.Errorf("wire: unknown payload tag %d", tag)
		}
		payload = c.dec(r)
	}
	if r.err != nil {
		return false, r.err
	}
	if r.Remaining() != 0 {
		return false, fmt.Errorf("wire: %d trailing bytes after payload", r.Remaining())
	}
	m.From = NodeID(from)
	m.To = NodeID(to)
	m.Payload = payload
	return !r.sawGob, nil
}

// ConsumeMessage decodes the first frame of data, returning the decoded
// message, the number of bytes the frame occupied, and whether the frame
// decoded entirely through the binary fast path (in which case re-encoding
// the message reproduces data[:n] bit for bit).
func ConsumeMessage(data []byte) (m Message, n int, binaryClean bool, err error) {
	size, hn := binary.Uvarint(data)
	if hn <= 0 {
		return m, 0, false, fmt.Errorf("wire: truncated or overlong frame header")
	}
	if hn != uvarintLen(size) {
		return m, 0, false, fmt.Errorf("wire: non-minimal frame header")
	}
	if size > maxFrame {
		return m, 0, false, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	if size > uint64(len(data)-hn) {
		return m, 0, false, fmt.Errorf("wire: frame body of %d bytes exceeds remaining %d", size, len(data)-hn)
	}
	clean, err := parseBody(&Reader{b: data[hn : hn+int(size)]}, &m)
	if err != nil {
		return m, 0, false, err
	}
	return m, hn + int(size), clean, nil
}
