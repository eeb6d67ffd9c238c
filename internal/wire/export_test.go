package wire

import "reflect"

// Test-only views of the stream decoder's intern table.

const (
	MaxIdents   = maxIdents
	MaxIdentLen = maxIdentLen
)

// InternedIdents returns the number of identifiers d currently shares.
func (d *Decoder) InternedIdents() int { return len(d.rd.idents) }

// RegisteredTypes returns every payload type installed with Register, in
// tag order.
func RegisteredTypes() []reflect.Type {
	var ts []reflect.Type
	for _, c := range binByTag {
		if c != nil {
			ts = append(ts, c.typ)
		}
	}
	return ts
}
