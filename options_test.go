package replobj_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/adets/seq"
	"github.com/replobj/replobj/internal/vtime"
)

// tableOption is one group option of the pair table. family is the option's
// name, name what a refusal calls it, kind the kind a WithScheduler selects.
type tableOption struct {
	family, name string
	kind         replobj.SchedulerKind
	opt          replobj.GroupOption
}

// The sizes the strategy options of the table set, each different from its
// default (8 lanes, a pool of 4).
const (
	tableLanes = 3
	tablePool  = 3
)

func tableOptions() []tableOption {
	var opts []tableOption
	for _, k := range replobj.Kinds() {
		opts = append(opts, tableOption{"WithScheduler", fmt.Sprintf("WithScheduler(%s)", k), k, replobj.WithScheduler(k)})
	}
	for _, o := range []struct {
		family string
		opt    replobj.GroupOption
	}{
		{"WithState", replobj.WithState(func() any { return &counter{} })},
		{"WithSchedulerFactory", replobj.WithSchedulerFactory(func(int) adets.Scheduler { return seq.New() })},
		{"WithLSAPeriod", replobj.WithLSAPeriod(5 * time.Millisecond)},
		{"WithPDSConfig", replobj.WithPDSConfig(pds.Config{PoolSize: tablePool})},
		{"WithCCLanes", replobj.WithCCLanes(tableLanes)},
		{"WithFailureDetection", replobj.WithFailureDetection(true)},
		{"WithQuorum", replobj.WithQuorum()},
		{"WithCheckpointEvery", replobj.WithCheckpointEvery(8)},
		{"WithSpeculation", replobj.WithSpeculation()},
		{"WithSchedTrace", replobj.WithSchedTrace(0)},
		{"WithShards", replobj.WithShards(2)},
	} {
		opts = append(opts, tableOption{family: o.family, name: o.family, opt: o.opt})
	}
	return opts
}

// plainState is a state that is not a Snapshotter.
type plainState struct{ v uint64 }

// tableCase is what the pair table expects of one ordered pair of options
// passed to one constructor.
type tableCase struct {
	// refusals lists the name pairs of every rule the options break; the
	// constructor must refuse with an error naming both of one of them.
	refusals [][2]string
	// scheduler is the Name() of the scheduler the group runs if accepted;
	// lanes and pool the CC lane count and PDS pool it runs with (0: not
	// CC, not PDS).
	scheduler   string
	lanes, pool int
}

// expect states the refusal rules from the outside, independently of the
// constructors' code.
func expect(ctor string, pair []tableOption) tableCase {
	has := map[string]bool{}
	kind := replobj.SchedulerKind("") // the last WithScheduler's
	for _, o := range pair {
		has[o.family] = true
		if o.family == "WithScheduler" {
			kind = o.kind
		}
	}
	var tc tableCase
	refuse := func(a, b string) { tc.refusals = append(tc.refusals, [2]string{a, b}) }
	if has["WithShards"] && ctor == "NewGroup" {
		refuse("WithShards", "NewGroup")
	}
	if has["WithSpeculation"] && ctor == "NewSharded" {
		refuse("WithSpeculation", "NewSharded")
	}
	if has["WithSpeculation"] && !has["WithState"] {
		refuse("WithSpeculation", "WithState")
	}
	if has["WithSchedulerFactory"] && kind != "" {
		refuse("WithSchedulerFactory", fmt.Sprintf("WithScheduler(%s)", kind))
	}
	effective, strategy := kind, "WithScheduler("
	switch {
	case has["WithSchedulerFactory"]:
		effective, strategy = "", "WithSchedulerFactory"
	case kind == "":
		effective = replobj.ADSAT
	}
	for opt, kinds := range map[string][]replobj.SchedulerKind{
		"WithCCLanes":   {replobj.CC},
		"WithLSAPeriod": {replobj.LSA},
		"WithPDSConfig": {replobj.PDS, replobj.PDS2},
	} {
		if has[opt] && !slices.Contains(kinds, effective) {
			refuse(opt, strategy)
		}
	}
	if has["WithQuorum"] && !has["WithFailureDetection"] {
		refuse("WithQuorum", "WithFailureDetection")
	}

	switch effective {
	case "":
		tc.scheduler = seq.New().Name()
	case replobj.SL:
		tc.scheduler = "Eternal"
	default:
		tc.scheduler = string(effective)
	}
	switch {
	case effective == replobj.CC && has["WithCCLanes"]:
		tc.lanes = tableLanes
	case effective == replobj.CC:
		tc.lanes = 8
	case (effective == replobj.PDS || effective == replobj.PDS2) && has["WithPDSConfig"]:
		tc.pool = tablePool
	case effective == replobj.PDS || effective == replobj.PDS2:
		tc.pool = 4
	}
	return tc
}

// TestGroupOptionsComposeOrRefuse takes every ordered pair of the group
// options to NewGroup and to NewSharded: each pair constructs, or is refused
// with an error that names both sides of a rule it breaks, and the rules are
// exactly expect's. A pair with a strategy option that constructs runs the
// scheduler it asked for, with the lane count or pool it set as /metrics
// shows them. A rule a single option breaks (WithCCLanes under the default
// ADETS-SAT, WithQuorum without failure detection) is broken by every pair
// that holds it and does not mend it.
func TestGroupOptionsComposeOrRefuse(t *testing.T) {
	opts := tableOptions()
	strategy := []string{"WithScheduler", "WithSchedulerFactory", "WithCCLanes", "WithPDSConfig", "WithLSAPeriod"}
	refused := map[[2]string]bool{}
	for _, ctor := range []string{"NewGroup", "NewSharded"} {
		for i, a := range opts {
			for j, b := range opts {
				if i == j {
					continue
				}
				pair := []tableOption{a, b}
				want := expect(ctor, pair)
				rt := vtime.Virtual()
				reg := replobj.NewMetricsRegistry()
				c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
				var g *replobj.Group
				var err error
				if ctor == "NewGroup" {
					g, err = c.NewGroup("obj", 3, a.opt, b.opt)
				} else {
					var s *replobj.Sharded
					if s, err = c.NewSharded("obj", 3, a.opt, b.opt); err == nil {
						g = s.Shard(0)
					}
				}
				label := fmt.Sprintf("%s(%s, %s)", ctor, a.name, b.name)
				switch {
				case err == nil && len(want.refusals) > 0:
					t.Errorf("%s constructed; want a refusal naming one of %v", label, want.refusals)
				case err != nil && len(want.refusals) == 0:
					t.Errorf("%s refused: %v", label, err)
				case err != nil && !namesOne(err.Error(), want.refusals):
					t.Errorf("%s: %q names none of %v", label, err, want.refusals)
				case err != nil:
					for _, r := range want.refusals {
						refused[r] = true
					}
				case slices.Contains(strategy, a.family) || slices.Contains(strategy, b.family):
					checkScheduler(t, label, rt, reg, g, want)
				}
				c.Close()
				rt.Stop()
			}
		}
	}
	// A state that cannot snapshot itself is refused beside either option
	// that images it, by both constructors, with an error that names the
	// option, WithState and the state's type.
	plain := replobj.WithState(func() any { return &plainState{} })
	for _, ctor := range []string{"NewGroup", "NewSharded"} {
		for _, o := range opts {
			if o.family != "WithCheckpointEvery" && o.family != "WithSpeculation" {
				continue
			}
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			var err error
			if ctor == "NewGroup" {
				_, err = c.NewGroup("obj", 3, o.opt, plain)
			} else {
				_, err = c.NewSharded("obj", 3, o.opt, plain)
			}
			if err == nil || !strings.Contains(err.Error(), o.family) || !strings.Contains(err.Error(), "WithState") ||
				!strings.Contains(err.Error(), "*replobj_test.plainState") {
				t.Errorf("%s(%s, WithState(plainState)): %v; want a refusal naming both and the state's type", ctor, o.name, err)
			}
			c.Close()
			rt.Stop()
		}
	}
	// Every rule of the list is reached.
	for _, r := range [][2]string{
		{"WithShards", "NewGroup"}, {"WithSpeculation", "NewSharded"},
		{"WithSpeculation", "WithState"}, {"WithSchedulerFactory", "WithScheduler(SEQ)"},
		{"WithCCLanes", "WithScheduler("}, {"WithLSAPeriod", "WithScheduler("},
		{"WithPDSConfig", "WithScheduler("}, {"WithCCLanes", "WithSchedulerFactory"},
		{"WithQuorum", "WithFailureDetection"},
	} {
		if !refused[r] {
			t.Errorf("no pair was refused for %v", r)
		}
	}
}

// namesOne reports whether msg names both sides of one of the refusals.
func namesOne(msg string, refusals [][2]string) bool {
	for _, r := range refusals {
		if strings.Contains(msg, r[0]) && strings.Contains(msg, r[1]) {
			return true
		}
	}
	return false
}

// checkScheduler starts rank 0 of g and holds its scheduler to want: the
// kind's Name(), and the CC lanes and PDS pool as /metrics exposes them
// (one lane queue-depth gauge per lane; every pool worker waiting for the
// request queue while the group is idle).
func checkScheduler(t *testing.T, label string, rt *vtime.VirtualRuntime, reg *replobj.MetricsRegistry, g *replobj.Group, want tableCase) {
	t.Helper()
	g.StartRank(0)
	replobj.Run(rt, func() { rt.Sleep(time.Millisecond) })
	if got := g.Replica(0).Scheduler().Name(); got != want.scheduler {
		t.Errorf("%s runs %s, want %s", label, got, want.scheduler)
	}
	node := fmt.Sprintf("node=%q", g.Members()[0])
	lanes, pool := 0, 0
	for _, line := range strings.Split(reg.Render(), "\n") {
		switch {
		case !strings.Contains(line, node):
		case strings.HasPrefix(line, "replobj_sched_lane_queue_depth{"):
			lanes++
		case strings.HasPrefix(line, "replobj_sched_wait_queue_depth{") && want.pool > 0:
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &pool)
		}
	}
	if lanes != want.lanes || pool != want.pool {
		t.Errorf("%s runs %d lanes and a pool of %d, want %d and %d", label, lanes, pool, want.lanes, want.pool)
	}
}

// TestRefusedNewShardedCreatesNothing: a refused NewSharded leaves no group
// behind, in the cluster or in its Directory, so a valid retry under the
// same name succeeds.
func TestRefusedNewShardedCreatesNothing(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	c := replobj.NewCluster(rt)
	defer c.Close()
	ids := []replobj.GroupID{replobj.ShardDirGroup("kv"), replobj.ShardGroupName("kv", 0), replobj.ShardGroupName("kv", 1)}
	for _, opts := range [][]replobj.GroupOption{
		{replobj.WithScheduler("bogus"), replobj.WithShards(2)},
		{replobj.WithShards(2), replobj.WithSpeculation(), replobj.WithState(func() any { return &counter{} })},
	} {
		if _, err := c.NewSharded("kv", 3, opts...); err == nil {
			t.Fatal("NewSharded accepted options it must refuse")
		}
		for _, id := range ids {
			if c.Directory().Group(id) != nil {
				t.Errorf("a refused NewSharded left %s in the Directory", id)
			}
		}
	}
	if _, err := c.NewGroup("solo", 3, replobj.WithScheduler("bogus")); err == nil {
		t.Fatal("NewGroup accepted an unknown kind")
	}
	if c.Directory().Group("solo") != nil {
		t.Error("a refused NewGroup left its group in the Directory")
	}
	s, err := c.NewSharded("kv", 3, replobj.WithShards(2))
	if err != nil {
		t.Fatalf("retry after a refusal: %v", err)
	}
	for _, id := range ids {
		if c.Directory().Group(id) == nil {
			t.Errorf("the retry did not create %s", id)
		}
	}
	if s.NumShards() != 2 {
		t.Errorf("the retry made %d shards, want 2", s.NumShards())
	}
}
