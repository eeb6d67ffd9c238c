package wire

// Test-only views of the stream decoder's intern table.

const (
	MaxIdents   = maxIdents
	MaxIdentLen = maxIdentLen
)

// InternedIdents returns the number of identifiers d currently shares.
func (d *Decoder) InternedIdents() int { return len(d.rd.idents) }
