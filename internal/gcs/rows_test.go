//go:build !race

package gcs

import (
	"fmt"
	"testing"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/wire"
)

// The race detector makes this test's 100 000 submits ten times slower and
// a gigabyte larger; plain go test runs it.

// TestIDRowsStayPerOrigin: four clients' 100 000 calls and a hundred named
// ids leave each member four origin rows and a hundred named ids — what a
// member keeps of message ids grows with the clients and the names, not
// with the requests (one entry per id, 16 384 of them, before numbered ids).
func TestIDRowsStayPerOrigin(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000 submits")
	}
	const origins, calls, names = 4, 25000, 100
	reg := obs.NewRegistry()
	h := newHarnessCfg(3, false, func(c *Config) { c.Stats = NewStats(reg, string(c.Self)) })
	h.run(func() {
		var eps []transport.Endpoint
		for o := 0; o < origins; o++ {
			eps = append(eps, h.net.Endpoint(wire.ClientID(fmt.Sprint("c", o))))
			defer eps[o].Close()
		}
		for call := uint64(1); call <= calls; call++ {
			for _, ep := range eps {
				ep.Send(h.ids[0], Submit{Group: h.group, Origin: ep.ID(), Call: call, Payload: appMsg{Body: "x"}})
			}
			n := origins
			if call%(calls/names) == 0 {
				h.members[1].Broadcast(fmt.Sprint("named-", call), appMsg{Body: "n"})
				n++
			}
			for _, m := range h.members {
				take(t, h.rt, m, n)
			}
		}
		h.rt.Lock()
		defer h.rt.Unlock()
		for _, m := range h.members {
			rows, named := len(m.origins), len(m.ids)
			if rows > origins || named > names {
				t.Errorf("%s keeps %d origin rows and %d named ids after %d calls of %d clients and %d names; want ≤ %d and ≤ %d",
					m.cfg.Self, rows, named, origins*calls, origins, names, origins, names)
			}
			label := `{node="` + string(m.cfg.Self) + `",kind="`
			if g, n := reg.Gauge("replobj_gcs_id_rows"+label+`origin"}`).Value(), reg.Gauge("replobj_gcs_id_rows"+label+`name"}`).Value(); g != int64(rows) || n != int64(named) {
				t.Errorf("%s: replobj_gcs_id_rows reads %d origin / %d name, the tables hold %d / %d", m.cfg.Self, g, n, rows, named)
			}
		}
	})
}
