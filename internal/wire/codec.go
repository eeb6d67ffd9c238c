package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds a single encoded message; anything larger is treated as a
// protocol error rather than an allocation request.
const maxFrame = 16 << 20 // 16 MiB

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
	// frame is the body the last Decode read, until Release: held bytes
	// peeked in r's buffer, or a buffer of its own when it is larger.
	frame []byte
	held  int
}

// NewDecoder returns a Decoder reading from r through an 8 KiB buffer: it
// holds a burst of small frames, and a frame that fits is decoded where it
// lies. A larger frame is read into a buffer of its own, dropped when its
// loan ends.
func NewDecoder(r io.Reader) *Decoder {
	br := bufio.NewReaderSize(r, 8<<10)
	return &Decoder{r: br, hdr: headerReader{r: br},
		rd:    Reader{idents: make(map[string]string), slabs: make([]any, len(binByTag))},
		cells: make([]any, len(binByTag))}
}

// Decode reads the next message frame into m, ending the loan of the last
// one (see Release). A payload of a registered type T is a *T that d
// lends: d owns it and decodes the next payload of that type into it, so
// it is valid until Release or the next Decode, it is never written
// through, and whatever must outlive the loan is copied out of it. Its
// strings are copies, and identifier strings may be shared with earlier
// messages of the same stream (see Reader.Ident). A byte field its codec
// reads with Reader.Lend — a Reply's Result — is a window into the frame,
// valid only as long as the loan: a holder that keeps it copies it
// (Client.receive into its slot), and a holder that keeps the whole
// message takes Keep instead of an Own copy. Every other byte field is an
// owned copy. A nested payload — the Payload of a gcs Submit or Ordered,
// or of a SyncResp's tail or pending entry — is an owned *U carved from
// d's slab for U, its small byte fields from d's byte chunk (see
// Register): the holder may keep it as long as it likes, and the collector
// frees a chunk once nothing carved from it is referenced. Nobody writes
// through it.
func (d *Decoder) Decode(m *Message) error {
	d.Release()
	n, err := d.readHeader()
	if err != nil {
		return err
	}
	if n <= uint64(d.r.Size()) {
		d.frame, err = d.r.Peek(int(n))
		d.held = len(d.frame)
	} else {
		d.frame = make([]byte, n)
		_, err = io.ReadFull(d.r, d.frame)
	}
	if err != nil {
		return fmt.Errorf("wire: read frame body: %w", err)
	}
	d.rd.b, d.rd.off, d.rd.err = d.frame, 0, nil
	d.lent, err = parseBody(&d.rd, m, d.cells)
	d.rd.b = nil
	return err
}

// Keep returns the message the last Decode read, decoded again from its
// frame into storage the caller owns: a new *T whose byte fields are all
// copies, where an Own copy of the lent payload would still share the
// frame. Call it after a Decode that succeeded, before Release.
func (d *Decoder) Keep() Message {
	var m Message
	d.rd.b, d.rd.off, d.rd.err = d.frame, 0, nil
	_, _ = parseBody(&d.rd, &m, nil) // it cannot fail: the frame decoded once already
	d.rd.b = nil
	return m
}

// Release ends the loan of the payload the last Decode lent: its cell is
// zeroed, so a holder that kept the pointer reads zeros at once rather than
// a later frame's payload, and an idle stream pins nothing the payload
// referenced (a snapshot image, say); and the frame is let go, so the
// bytes it lent may be overwritten by the next read.
func (d *Decoder) Release() {
	if c := d.lent; c != nil {
		c.clear(d.cells[c.tag])
		d.lent = nil
	}
	if d.held > 0 {
		_, _ = d.r.Discard(d.held) // peeked, so buffered: it cannot fail
		d.held = 0
	}
	d.frame = nil
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
