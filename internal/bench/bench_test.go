package bench

import (
	"slices"
	"testing"
)

// TestExperimentTable holds the one experiment table: it lists the paper's
// eight figures and the seven ablations, in that order, and All runs exactly
// those experiments in table order.
func TestExperimentTable(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig6a", "fig6b",
		"ab-pds2", "ab-lsaperiod", "ab-reply", "ab-yield", "ab-pdsnested", "ab-pdsassign", "ab-matpredict",
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("Experiments() = %v, want %v", ids, want)
	}
	cfg := Defaults()
	cfg.PerClient = 1
	cfg.Warmup = 0
	results, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, r := range results {
		ran = append(ran, r.ID)
	}
	if !slices.Equal(ran, ids) {
		t.Errorf("All ran %v, want the table order %v", ran, ids)
	}
}
