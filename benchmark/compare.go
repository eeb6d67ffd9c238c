package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadSet reads every untraced run report of a directory and returns the
// end-to-end values per workload and metric.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.e2e.seed*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.e2e.seed*.json run reports in %s", dir)
	}
	set := map[string]map[string][]float64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rep.Result.Correct {
			return nil, fmt.Errorf("%s: run failed its correctness gate (%s)", path, rep.Error)
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[string][]float64{}
		}
		for name, v := range rep.Result.Metrics {
			set[rep.Workload][name] = append(set[rep.Workload][name], v.Value)
		}
	}
	return set, nil
}

// compareSets prints, per workload and end-to-end metric, each set's median
// and quartiles, how much worse set B's median is than set A's, the bound,
// and the verdict. It also prints each set's own spread (interquartile
// range over median), the figure the benchmark has to keep under a third of
// the bound.
func compareSets(w io.Writer, dirA, dirB string) error {
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s. worse = how much worse B's median is than A's, as a share of A's.\n\n", dirA, dirB)
	fmt.Fprintln(w, "| workload | metric | n A/B | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | worse | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	exceeded := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "exceeds"
				exceeded++
			}
			fmt.Fprintf(w, "| %s | %s | %d/%d | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				wl.name, m.Name, len(va), len(vb), a1, a2, a3, b1, b2, b3,
				100*(a3-a1)/a2, 100*(b3-b1)/b2, 100*worse, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) exceed their bound", exceeded)
	}
	return nil
}
