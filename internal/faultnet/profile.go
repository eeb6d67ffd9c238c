package faultnet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile sets the fault mix. Rates are per-mill (‰) of messages: each
// message draws once, and the draw lands in exactly one band (or none →
// clean delivery), so the rates must sum to ≤ 1000.
//
// Delay magnitudes are deterministic per message (derived from the same
// hash as the band). ReorderDelay should comfortably exceed the underlying
// network's latency so later messages on the link genuinely overtake the
// held one. Partition episodes are measured in messages, not time, to keep
// them seed-deterministic; profiles keep episodes short relative to the
// failure detector's suspicion threshold (100 ms) so PRNG partitions
// perturb ordering without tripping spurious view changes — long outages
// belong to the test script's explicit Crash/Partition calls.
type Profile struct {
	Name string

	DropPerMill      uint32
	DupPerMill       uint32
	DelayPerMill     uint32
	ReorderPerMill   uint32
	CorruptPerMill   uint32
	PartitionPerMill uint32

	DelayMin     time.Duration // extra latency floor for Delay/Duplicate copies
	DelayMax     time.Duration // extra latency ceiling
	ReorderDelay time.Duration // hold time for Reorder

	PartitionMinMsgs uint32 // episode length floor (messages on the link)
	PartitionMaxMsgs uint32 // episode length ceiling
}

func (p *Profile) applyDefaults() {
	if p.DelayMin <= 0 {
		p.DelayMin = 200 * time.Microsecond
	}
	if p.DelayMax < p.DelayMin {
		p.DelayMax = p.DelayMin
	}
	if p.ReorderDelay <= 0 {
		p.ReorderDelay = 2 * time.Millisecond
	}
	if p.PartitionMinMsgs == 0 {
		p.PartitionMinMsgs = 3
	}
	if p.PartitionMaxMsgs < p.PartitionMinMsgs {
		p.PartitionMaxMsgs = p.PartitionMinMsgs
	}
}

// acc returns the cumulative per-mill band boundary after band i, in the
// fixed order drop, dup, delay, reorder, corrupt, partition.
func (p *Profile) acc(i int) uint64 {
	bands := [...]uint32{
		p.DropPerMill, p.DupPerMill, p.DelayPerMill,
		p.ReorderPerMill, p.CorruptPerMill, p.PartitionPerMill,
	}
	var sum uint64
	for j := 0; j <= i && j < len(bands); j++ {
		sum += uint64(bands[j])
	}
	return sum
}

// delayFor maps per-message entropy to a latency in [DelayMin, DelayMax].
func (p *Profile) delayFor(entropy uint64) time.Duration {
	span := uint64(p.DelayMax-p.DelayMin) + 1
	return p.DelayMin + time.Duration(entropy%span)
}

// None injects nothing: every message passes. Useful to run the chaos
// harness plumbing (crash scripts, digest assertions) on a clean network.
func None() Profile { return Profile{Name: "none"} }

// Mild loses or perturbs roughly 7% of messages — enough to exercise the
// NACK and retry paths on every run without starving progress.
func Mild() Profile {
	return Profile{
		Name:             "mild",
		DropPerMill:      15,
		DupPerMill:       10,
		DelayPerMill:     30,
		ReorderPerMill:   10,
		CorruptPerMill:   5,
		PartitionPerMill: 2,
		DelayMin:         200 * time.Microsecond,
		DelayMax:         2 * time.Millisecond,
		ReorderDelay:     2 * time.Millisecond,
		PartitionMinMsgs: 3,
		PartitionMaxMsgs: 12,
	}
}

// Harsh perturbs roughly 19% of messages with longer delays and longer
// partition episodes. Progress slows markedly; semantics must still hold.
func Harsh() Profile {
	return Profile{
		Name:             "harsh",
		DropPerMill:      50,
		DupPerMill:       30,
		DelayPerMill:     60,
		ReorderPerMill:   30,
		CorruptPerMill:   15,
		PartitionPerMill: 8,
		DelayMin:         300 * time.Microsecond,
		DelayMax:         5 * time.Millisecond,
		ReorderDelay:     4 * time.Millisecond,
		PartitionMinMsgs: 5,
		PartitionMaxMsgs: 25,
	}
}

var profiles = map[string]func() Profile{
	"none":  None,
	"mild":  Mild,
	"harsh": Harsh,
}

// ByName resolves a profile by name ("none", "mild", "harsh") for the
// replnode -chaos-profile flag.
func ByName(name string) (Profile, error) {
	f, ok := profiles[strings.ToLower(name)]
	if !ok {
		names := make([]string, 0, len(profiles))
		for n := range profiles {
			names = append(names, n)
		}
		sort.Strings(names)
		return Profile{}, fmt.Errorf("unknown chaos profile %q (have %s)", name, strings.Join(names, ", "))
	}
	return f(), nil
}
