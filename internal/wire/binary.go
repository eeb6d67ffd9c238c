package wire

// This file implements the self-describing binary codec, the one format
// on the wire.
//
// Frame layout (see codec.go for the stream framing):
//
//	frame := uvarint(len(body)) body
//	body  := uvarint(tag) rest
//
//	tag 0:        reserved, refused like any unknown tag (builds before
//	              the codec was the only format sent a gob stream here).
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
// writes, so every decodable frame re-encodes to the identical byte
// string — the property the fuzzer pins down.
//
// Every codec of the tree is installed with Register[T] and decodes
// through the one frame reader, Reader: the first error sticks, later
// reads return zero values, and the decoder's result is dropped for that
// one error. A decoder states its own refusals with Reader.Fail, and reads
// every slice length with Reader.Count, which refuses a count beyond the
// bytes left in the frame before anything is sized by it.
//
// Nested payloads (the Payload any fields of gcs.Submit and gcs.Ordered)
// recurse with the same tagging through Buffer.Any / Reader.Any. A payload
// of a type without a codec, top-level or nested, does not encode.
//
// Tag ranges are assigned statically so both ends of a connection agree
// without negotiation:
//
//	 0– 7  reserved (1: nil payload)
//	10–19  internal/gcs (10–18: submit, ordered, nack, heartbeat, propose,
//	       sync request/response, snapshot, hint)
//	20–29  internal/replica (20 request, 21 reply; 27, the migration chunk
//	       of live resharding, is retired and decodes as an unknown tag)
//	30–39  internal/adets (30 timeout, 31 LSA table update)

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

const (
	tagNil uint64 = 1
	// TagUserMin is the lowest tag value available to payload codecs.
	TagUserMin uint64 = 8
)

type binaryCodec struct {
	tag uint64
	typ reflect.Type             // T
	enc func(*Buffer, any) error // takes a T or a *T
	// nest decodes a nested payload into an owned *T (see carve); nil once
	// the Reader has failed.
	nest func(r *Reader) any
	// into decodes a top-level payload into cell, a *T (nil: a new one),
	// and returns the *T; nil once the Reader has failed.
	into  func(r *Reader, cell any) any
	own   func(any) any  // a new *T holding what the T or *T argument holds, its nested payloads owned
	clear func(cell any) // zeroes the *T
}

// maxTag bounds the tags Register accepts: codecs and a Decoder's cells are
// found by indexing a slice with the tag, not through a map.
const maxTag = 255

var (
	binByType = map[reflect.Type]*binaryCodec{} // T and *T alike
	binByTag  []*binaryCodec                    // indexed by tag
)

// codecFor returns the codec registered for tag, or nil.
func codecFor(tag uint64) *binaryCodec {
	if tag < uint64(len(binByTag)) {
		return binByTag[tag]
	}
	return nil
}

// Register installs T's codec under tag: a payload of a type without one
// does not encode. Call it from an init function (registration is not
// synchronized); a reserved tag, a tag above 255, or a second codec for a
// tag or a type, panics. enc receives a value of exactly T; dec must
// consume exactly the bytes enc produced, reading them through r, and what
// it returns is dropped, for r's error, once a read has failed.
//
// A payload of T is sent as a *T or a T: both encode through enc, to the
// same bytes, and so does a nested one (an exported field of T of type
// any, written with Buffer.Any). A payload decodes as a *T. A top-level
// one on a stream Decoder is lent (see Decoder.Decode), from
// ConsumeMessage owned. A nested one (Buffer.Any / Reader.Any) is always
// owned: on a stream Decoder it is carved from the Decoder's slab for T, a
// chunk of Ts that grows from 1 KiB to at most 8 KiB (6 to 51 Requests)
// and is never reused, so a kept nested payload pins at most its chunk;
// elsewhere it is a new(T). dec must return fresh storage for every
// slice it decodes, but for one read with Reader.Lend: a lent *T is
// decoded into again, and a copy of it (Own) shares its slices. Lend is
// for a byte field every receiver of a top-level T copies or drops before
// the loan ends; the receiver that keeps it says so where it copies. A
// byte field of a nested payload read with Reader.Bytes (or Lend) of at
// most 512 bytes is carved from the Decoder's byte chunk, at most 4 KiB,
// so a holder that keeps such a slice long pins at most that chunk and
// copies what it keeps. That T encodes like *T is pinned by
// benchmark/probes.go, which sends T values.
func Register[T any](tag uint64, enc func(*Buffer, T) error, dec func(r *Reader) T) {
	if tag < TagUserMin || tag > maxTag {
		panic(fmt.Sprintf("wire: binary payload tag %d is reserved or out of range", tag))
	}
	t := reflect.TypeFor[T]()
	if codecFor(tag) != nil {
		panic(fmt.Sprintf("wire: binary payload tag %d registered twice", tag))
	}
	if _, dup := binByType[t]; dup {
		panic(fmt.Sprintf("wire: binary payload type %v registered twice", t))
	}
	nested := nestedFields(t)
	c := &binaryCodec{tag: tag, typ: t,
		enc: func(b *Buffer, v any) error {
			if p, ok := v.(*T); ok {
				if p == nil {
					return fmt.Errorf("wire: nil %T payload", p)
				}
				return enc(b, *p)
			}
			return enc(b, v.(T))
		},
		nest: func(r *Reader) any {
			v := dec(r)
			if r.err != nil {
				return nil
			}
			p := carve[T](r, tag)
			*p = v
			return p
		},
		into: func(r *Reader, cell any) any {
			v := dec(r)
			if r.err != nil {
				return nil
			}
			p, _ := cell.(*T)
			if p == nil {
				p = new(T)
			}
			*p = v
			return p
		},
		own: func(v any) any {
			p := new(T)
			if q, ok := v.(*T); ok {
				if q == nil {
					return v
				}
				*p = *q
			} else {
				*p = v.(T)
			}
			for _, i := range nested {
				f := reflect.ValueOf(p).Elem().Field(i).Addr().Interface().(*any)
				*f = Own(*f)
			}
			return p
		},
		clear: func(cell any) {
			var zero T
			*cell.(*T) = zero
		}}
	if int(tag) >= len(binByTag) {
		binByTag = append(binByTag, make([]*binaryCodec, int(tag)+1-len(binByTag))...)
	}
	binByTag[tag] = c
	binByType[t] = c
	binByType[reflect.PointerTo(t)] = c
}

// Own returns a copy of a top-level payload for the caller to keep: a new
// *T holding what payload, a *T or a T of a registered T, holds. A payload
// of any other type is returned as it is. A nested payload of a registered
// U the copy holds — a *U or a U — becomes a fresh *U holding what it
// holds (an Own copy itself): a sender may nest a cell of its own, as the
// client nests its call's Request, and no receiver of the copy shares it.
// Otherwise the copy is shallow, and that is enough for a payload a sender
// lends to Send: it is never written through once it has been sent or
// decoded, and decoding into a lent cell replaces its slices rather than
// writing into them. It is not enough for a payload a stream Decoder lent:
// a byte field its codec read with Reader.Lend still shares the frame, so
// the one holder that keeps such a payload whole, the TCP inbox, takes
// Decoder.Keep instead.
func Own(payload any) any {
	if payload == nil {
		return nil
	}
	if c, ok := binByType[reflect.TypeOf(payload)]; ok {
		return c.own(payload)
	}
	return payload
}

// nestedFields returns the indexes of t's exported fields of type any: the
// nested payloads Own copies.
func nestedFields(t reflect.Type) []int {
	if t.Kind() != reflect.Struct {
		return nil
	}
	var idx []int
	for i := range t.NumField() {
		if f := t.Field(i); f.IsExported() && f.Type == reflect.TypeFor[any]() {
			idx = append(idx, i)
		}
	}
	return idx
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
// identically).
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

// Any appends a nested payload: its tag, then its encoding. A payload of a
// type without a codec is an error naming the type.
func (b *Buffer) Any(v any) error {
	if v == nil {
		b.Uvarint(tagNil)
		return nil
	}
	c, ok := binByType[reflect.TypeOf(v)]
	if !ok {
		return fmt.Errorf("wire: no codec registered for nested payload type %T", v)
	}
	b.Uvarint(c.tag)
	return c.enc(b, v)
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
		return fmt.Errorf("wire: no codec registered for payload type %T", m.Payload)
	}
	b.Uvarint(c.tag)
	b.String(string(m.From))
	b.String(string(m.To))
	return c.enc(b, m.Payload)
}

// AppendMessage appends one complete encoded frame for m to dst and
// returns the extended slice; on an error dst comes back as it was. It is
// the allocation-free encoder the TCP transport's Send appends each frame
// to a connection's pending bytes with; the benchmarks use it too.
// Pinned by benchmark/probes.go.
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

// --- decode side ---

// Reader is the one frame reader of the tree: every payload codec decodes
// its fields through it, in order. All reads are bounds-checked, and the
// first error sticks: every later read returns the zero value, so a decoder
// reads straight through without a branch per field, and the frame is
// refused with that one error.
type Reader struct {
	b   []byte
	off int
	err error
	// idents is the intern table of the stream this frame came from; nil
	// when the frame is decoded on its own (ConsumeMessage).
	idents map[string]string
	// lend is set while a stream Decoder decodes a top-level payload into
	// the cell it lends: Lend returns windows into the frame then.
	lend bool
	// nested is set while a nested payload is decoded (Any).
	nested bool
	// slabs holds, indexed by tag, the *slab[T] a stream Decoder carves
	// nested payloads of that tag from, and chunk the unused rest of the
	// byte chunk it carves their byte fields from, chunkSize bytes when
	// new; slabs is nil when the frame is decoded on its own, and every
	// nested payload and byte field is then a new allocation.
	slabs     []any
	chunk     []byte
	chunkSize int
}

// Bounds of a stream's slabs (see carve and Reader.Bytes). A chunk is
// allocated in bulk, handed out an element or a field at a time, never
// written again once handed out and never reused: the collector frees it
// when nothing it handed out is referenced, so a kept element pins at most
// its chunk. Chunks grow geometrically, so a stream that carries a few
// nested payloads pins a few small ones.
const (
	minSlab      = 1 << 10 // bytes of a stream's first chunk of Ts: 6 Requests
	maxSlab      = 8 << 10 // bytes of its largest: 51 Requests
	maxCarve     = 512     // the longest byte field carved; longer ones are slices of their own
	minByteChunk = 512     // bytes of a stream's first byte chunk (≥ maxCarve)
	maxByteChunk = 4 << 10 // bytes of its largest
	// mallocHeader is what the runtime puts in front of an object of over
	// 512 bytes that holds pointers. A chunk of Ts leaves room for it, so
	// that it fills a power-of-two size class: without it 64 Requests,
	// 10 240 bytes, take the 10 880-byte class, 10 bytes an element more
	// than a new(T) each.
	mallocHeader = 8
)

// slab is a stream's chunk of nested payloads of one type: rest are its
// elements not handed out yet, and next is the size in bytes of the next
// chunk.
type slab[T any] struct {
	rest []T
	next int
}

// carve returns the storage of a nested payload of T, tagged tag: the next
// element of r's slab for the tag on a stream Decoder, a new(T) otherwise.
func carve[T any](r *Reader, tag uint64) *T {
	if tag >= uint64(len(r.slabs)) {
		return new(T)
	}
	s, _ := r.slabs[tag].(*slab[T])
	if s == nil {
		s = &slab[T]{next: minSlab}
		r.slabs[tag] = s
	}
	if len(s.rest) == 0 {
		var zero T
		s.rest = make([]T, max((s.next-mallocHeader)/max(int(unsafe.Sizeof(zero)), 1), 1))
		s.next = min(2*s.next, maxSlab)
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

// carveBytes returns a copy of raw, at most maxCarve bytes, cut from r's
// byte chunk: its capacity ends with it, so an append copies.
func (r *Reader) carveBytes(raw []byte) []byte {
	n := len(raw)
	if len(r.chunk) < n {
		r.chunkSize = min(max(2*r.chunkSize, minByteChunk), maxByteChunk)
		r.chunk = make([]byte, r.chunkSize)
	}
	b := r.chunk[:n:n]
	copy(b, raw)
	r.chunk = r.chunk[n:]
	return b
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
// into the frame, for the caller to copy or lend.
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
// node, a group, a method, a mutex, the text of a logical thread id (a
// client's node name: its call number travels as a number) — and so repeats
// from frame to frame. On a stream Decoder the result is interned: every
// occurrence after the first is the same string, found without allocating.
// Fields that differ per request (message names, shard keys, error texts)
// belong to String; routed through here they would only churn the table.
// Like String, the result never aliases the frame.
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
// alias of the frame, and its capacity is its length; zero length decodes
// as nil. In a nested payload on a stream Decoder a field of at most 512
// bytes is carved from the stream's byte chunk (see Register); anything
// else is a slice of its own.
func (r *Reader) Bytes() []byte {
	raw := r.span("byte slice")
	if len(raw) == 0 {
		return nil
	}
	if r.nested && r.slabs != nil && len(raw) <= maxCarve {
		return r.carveBytes(raw)
	}
	b := make([]byte, len(raw))
	copy(b, raw)
	return b
}

// Lend reads a length-prefixed byte slice like Bytes, without copying it
// where it can: in a top-level payload a stream Decoder lends, the result
// is a window into the frame, valid until the Decoder's Release (its
// capacity ends with it, so an append copies). In a nested payload, and in
// a frame decoded on its own (ConsumeMessage, Decode), it is what Bytes
// returns. See Register for the fields that may use it.
func (r *Reader) Lend() []byte {
	if !r.lend {
		return r.Bytes()
	}
	raw := r.span("byte slice")
	if len(raw) == 0 {
		return nil
	}
	return raw[:len(raw):len(raw)]
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

// Any reads a nested payload written by Buffer.Any: an owned *T (see
// Register), or nil.
func (r *Reader) Any() any {
	tag := r.Uvarint()
	if r.err != nil || tag == tagNil {
		return nil
	}
	c := codecFor(tag)
	if c == nil {
		r.Fail(fmt.Errorf("wire: unknown nested payload tag %d", tag))
		return nil
	}
	lend, nested := r.lend, r.nested // a nested payload is owned: it lends nothing
	r.lend, r.nested = false, true
	v := c.nest(r)
	r.lend, r.nested = lend, nested
	return v
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

// parseBody decodes the frame body r holds into m. A payload of a
// registered type is decoded into the *T cells holds for its tag, made on
// first use, and lent is its codec: its Lend fields are windows into r's
// bytes. With cells nil (ConsumeMessage, Decoder.Keep) it is decoded into a
// new *T, which the caller owns. An unknown tag is refused before anything
// after it is read.
func parseBody(r *Reader, m *Message, cells []any) (lent *binaryCodec, err error) {
	tag := r.Uvarint()
	var c *binaryCodec
	if r.err == nil && tag != tagNil {
		if c = codecFor(tag); c == nil {
			return nil, fmt.Errorf("wire: unknown payload tag %d", tag)
		}
	}
	from, to := r.Ident(), r.Ident()
	var payload any
	if r.err == nil && c != nil {
		if tag < uint64(len(cells)) {
			r.lend = true
			payload, lent = c.into(r, cells[tag]), c
			r.lend = false
			cells[tag] = payload
		} else {
			payload = c.into(r, nil)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after payload", r.Remaining())
	}
	m.From = NodeID(from)
	m.To = NodeID(to)
	m.Payload = payload
	return lent, nil
}

// ConsumeMessage decodes the first frame of data, returning the decoded
// message and the number of bytes the frame occupied. A payload of a
// registered type is a *T the caller owns. binaryClean is true whenever err
// is nil, since every frame that decodes re-encodes to data[:n] bit for
// bit; it stays because benchmark/probes.go pins the four results.
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
	if _, err := parseBody(&Reader{b: data[hn : hn+int(size)]}, &m, nil); err != nil {
		return m, 0, false, err
	}
	return m, hn + int(size), true, nil
}
