package wire

import "reflect"

// Test-only views of the stream decoder's intern table.

const (
	MaxIdents   = maxIdents
	MaxIdentLen = maxIdentLen
)

// InternedIdents returns the number of identifiers d currently shares.
func (d *Decoder) InternedIdents() int { return len(d.rd.idents) }

// RegisteredTypes returns every payload type the product installs with
// Register, in tag order: those below tag 100, where this package's tests
// start registering their own.
func RegisteredTypes() []reflect.Type {
	var ts []reflect.Type
	for _, c := range binByTag {
		if c != nil && c.tag < 100 {
			ts = append(ts, c.typ)
		}
	}
	return ts
}

// Bounds of a stream's slabs (see Register).
const (
	MaxCarve     = maxCarve
	MinByteChunk = minByteChunk
)
