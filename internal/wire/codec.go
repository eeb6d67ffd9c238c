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

// Encoder writes length-prefixed frames to an underlying writer: a minimal
// uvarint body length, then the self-describing body (see binary.go). It is
// not safe for concurrent use; callers serialize writes per connection.
type Encoder struct {
	w *bufio.Writer
	// hdr is the frame-length scratch. bufio.Writer.Write may hand its
	// argument to the underlying io.Writer, so a header array local to
	// EncodeBuffered would move to the heap once per frame.
	hdr [binary.MaxVarintLen64]byte
}

// NewEncoder returns an Encoder writing to w. The buffer is sized above
// the transport's coalesce budget so bufio never auto-flushes mid-batch;
// the writer loop decides when frames hit the socket.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 128<<10)}
}

// Encode writes one message frame and flushes it — the one-shot form for
// callers without their own coalescing loop.
func (e *Encoder) Encode(m *Message) error {
	if err := e.EncodeBuffered(m); err != nil {
		return err
	}
	return e.Flush()
}

// EncodeBuffered writes one message frame into the encoder's buffer
// without flushing. The transport's writer goroutine uses it to coalesce a
// burst of frames into a single Flush (one syscall).
func (e *Encoder) EncodeBuffered(m *Message) error {
	body := getBuffer()
	defer putBuffer(body)
	if err := appendBody(body, m); err != nil {
		return err
	}
	if len(body.b) > maxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body.b))
	}
	hn := binary.PutUvarint(e.hdr[:], uint64(len(body.b)))
	if _, err := e.w.Write(e.hdr[:hn]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := e.w.Write(body.b); err != nil {
		return fmt.Errorf("wire: write frame body: %w", err)
	}
	return nil
}

// Flush writes all buffered frames to the underlying writer.
func (e *Encoder) Flush() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush frames: %w", err)
	}
	return nil
}

// Buffered returns the number of encoded bytes awaiting a Flush.
func (e *Encoder) Buffered() int { return e.w.Buffered() }

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
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	br := bufio.NewReaderSize(r, 32<<10)
	return &Decoder{r: br, hdr: headerReader{r: br}, rd: Reader{idents: make(map[string]string)}}
}

// Decode reads the next message frame into m. The frame buffer is pooled;
// decoded messages never alias it (all strings and byte slices are
// copies). Identifier strings may be shared with earlier messages of the
// same stream (see Reader.Ident).
func (d *Decoder) Decode(m *Message) error {
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
	d.rd.b, d.rd.off, d.rd.err, d.rd.sawGob = buf, 0, nil, false
	_, err = parseBody(&d.rd, m)
	d.rd.b = nil // the frame buffer goes back to the pool
	return err
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
