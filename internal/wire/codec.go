package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// maxFrame bounds a single encoded message; anything larger is treated as a
// protocol error rather than an allocation request.
const maxFrame = 16 << 20 // 16 MiB

// framePool holds frame-sized scratch slices for the decoder.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// Decoder reads length-prefixed frames.
type Decoder struct {
	r   *bufio.Reader
	hdr headerReader // over r
	// rd is the frame reader, reset for every frame. Payload codecs are
	// reached through function values, so a Reader built per frame would be
	// heap-allocated per frame. It carries the stream's intern table (see
	// Reader.Ident).
	rd Reader
	// cells holds, indexed by tag, the *T this Decoder decodes every
	// payload of that tag into and lends out (nil until the first one);
	// lent is the codec of the one the last Decode lent, until Release.
	cells []any
	lent  *binaryCodec
}

// NewDecoder returns a Decoder reading from r through an 8 KiB buffer: it
// holds a burst of small frames, and a frame bigger than it is read
// straight into the pooled frame buffer.
func NewDecoder(r io.Reader) *Decoder {
	br := bufio.NewReaderSize(r, 8<<10)
	return &Decoder{r: br, hdr: headerReader{r: br}, rd: Reader{idents: make(map[string]string)},
		cells: make([]any, len(binByTag))}
}

// Decode reads the next message frame into m. A payload of a registered
// type T is a *T that d lends: d owns it and decodes the next payload of
// that type into it, so it is valid until Release or the next Decode, it
// is never written through, and whatever must outlive the loan is copied
// out of it (dereference it, or Own it). Its nested payloads are owned
// values and may be kept. The frame buffer is pooled; decoded messages
// never alias it (all strings and byte slices are copies). Identifier
// strings may be shared with earlier messages of the same stream (see
// Reader.Ident).
func (d *Decoder) Decode(m *Message) error {
	d.lent = nil
	n, err := d.readHeader()
	if err != nil {
		return err
	}
	bufp := framePool.Get().(*[]byte)
	defer func() {
		if cap(*bufp) <= maxPooledBuf {
			framePool.Put(bufp)
		}
	}()
	if cap(*bufp) < int(n) {
		*bufp = make([]byte, n)
	}
	buf := (*bufp)[:n]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return fmt.Errorf("wire: read frame body: %w", err)
	}
	d.rd.b, d.rd.off, d.rd.err = buf, 0, nil
	d.lent, err = parseBody(&d.rd, m, d.cells)
	d.rd.b = nil // the frame buffer goes back to the pool
	return err
}

// Release ends the loan of the payload the last Decode lent: its cell is
// zeroed, so a holder that kept the pointer reads zeros at once rather than
// a later frame's payload, and an idle stream pins nothing the payload
// referenced (a snapshot image, say).
func (d *Decoder) Release() {
	if c := d.lent; c != nil {
		c.clear(d.cells[c.tag])
		d.lent = nil
	}
}

// readHeader reads and validates the uvarint frame-length header, minimal
// like every varint of the format (ConsumeMessage applies the same rule). A
// clean EOF before the first header byte is io.EOF; EOF mid-header is an
// error.
func (d *Decoder) readHeader() (uint64, error) {
	d.hdr.n = 0
	n, err := binary.ReadUvarint(&d.hdr)
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: read frame header: %w", err)
	}
	if d.hdr.n != uvarintLen(n) {
		return 0, fmt.Errorf("wire: non-minimal frame header")
	}
	if n > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	return n, nil
}

// headerReader counts the bytes binary.ReadUvarint takes for one header.
type headerReader struct {
	r *bufio.Reader
	n int
}

func (h *headerReader) ReadByte() (byte, error) { h.n++; return h.r.ReadByte() }
