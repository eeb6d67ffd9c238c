// Command replbench regenerates the paper's tables and figures.
//
// Usage:
//
//	replbench -exp fig4a            # one experiment (see -list)
//	replbench -exp all              # everything (default)
//	replbench -exp table1           # the algorithm property matrix
//	replbench -n 200 -warmup 20     # larger sample sizes
//	replbench -csv                  # machine-readable output
//	replbench -json results.json    # full result tables + config + git SHA
//
// Experiments run on the virtual-time kernel: a full paper-scale sweep
// takes seconds of host time and is reproducible run to run. The numbers
// reproduce the paper's figures; they are not wall-clock measurements.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list), 'table1', or 'all'")
		n       = flag.Int("n", 60, "measured invocations per client")
		warmup  = flag.Int("warmup", 5, "warm-up invocations per client (excluded)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = flag.String("json", "", "also write all results as JSON to this path")
		latency = flag.Duration("latency", 600*time.Microsecond, "one-way network latency")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		metrics = flag.Bool("metrics", false, "collect cluster metrics and print a summary at the end")
	)
	flag.Parse()

	exps := bench.Experiments()
	if *list {
		fmt.Println("table1")
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return
	}
	if err := checkFlags(*n, *warmup, *latency); err != nil {
		fmt.Fprintf(os.Stderr, "replbench: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.Defaults()
	cfg.PerClient = *n
	cfg.Warmup = *warmup
	cfg.Latency = *latency
	if *metrics {
		cfg.Metrics = replobj.NewMetricsRegistry()
	}
	defer func() {
		if cfg.Metrics != nil {
			fmt.Println("\n--- metrics summary (all scenarios) ---")
			fmt.Print(cfg.Metrics.Summary())
		}
	}()

	var collected []bench.Result
	switch *exp {
	case "table1":
		fmt.Println("Table 1 — multithreading algorithms and their properties")
		fmt.Print(replobj.Table1())
	case "all":
		results, err := writeAll(os.Stdout, cfg, *csv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replbench: %v\n", err)
			os.Exit(1)
		}
		collected = results
	default:
		i := slices.IndexFunc(exps, func(e bench.Experiment) bool { return e.ID == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "replbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		r, err := exps[i].Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "replbench: %v\n", err)
			os.Exit(1)
		}
		show(os.Stdout, r, *csv)
		collected = []bench.Result{r}
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, cfg, collected); err != nil {
			fmt.Fprintf(os.Stderr, "replbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// writeAll prints what -exp all prints: Table 1, then every experiment.
func writeAll(w io.Writer, cfg bench.Config, csv bool) ([]bench.Result, error) {
	fmt.Fprintln(w, "Table 1 — multithreading algorithms and their properties")
	fmt.Fprint(w, replobj.Table1())
	fmt.Fprintln(w)
	results, err := bench.All(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		show(w, r, csv)
	}
	return results, nil
}

func show(w io.Writer, r bench.Result, csv bool) {
	if csv {
		fmt.Fprintf(w, "# %s — %s\n%s\n", r.ID, r.Title, r.CSV())
	} else {
		fmt.Fprintln(w, r.Format())
	}
}

// checkFlags rejects sample sizes and latencies no experiment can run with:
// every experiment needs at least one measured invocation per client.
func checkFlags(n, warmup int, latency time.Duration) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", n)
	case warmup < 0:
		return fmt.Errorf("-warmup must not be negative, got %d", warmup)
	case latency < 0:
		return fmt.Errorf("-latency must not be negative, got %v", latency)
	}
	return nil
}
