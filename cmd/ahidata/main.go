// Command ahidata inspects the synthetic datasets and workloads used by
// the experiment suite: it prints dataset samples, key-space statistics,
// and workload CDFs (the paper's Figure 11) as text histograms.
//
// Usage:
//
//	ahidata -dataset osm -n 100000 -sample 5
//	ahidata -cdf W1.1 -n 1000000
//	ahidata -workload W5.1 -ops 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ahi/internal/dataset"
	"ahi/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one ahidata invocation with the given arguments, printing
// to stdout and stderr, and returns the process exit code: 0 on success,
// 2 on bad usage or an unknown dataset or workload.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ahidata", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ds     = fs.String("dataset", "", "dataset to inspect: osm|userids|emails|ycsb|consecutive")
		n      = fs.Int("n", 100_000, "dataset size")
		sample = fs.Int("sample", 5, "number of sample entries to print")
		seed   = fs.Int64("seed", 1, "generator seed")
		cdf    = fs.String("cdf", "", "workload whose key-selection CDF to print (e.g. W1.1)")
		wl     = fs.String("workload", "", "workload whose operations to print")
		ops    = fs.Int("ops", 10, "number of operations to print")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case *ds != "":
		err = inspectDataset(stdout, *ds, *n, *sample, *seed)
	case *cdf != "":
		err = printCDF(stdout, *cdf, *n, *seed)
	case *wl != "":
		err = printOps(stdout, *wl, *n, *ops, *seed)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

func inspectDataset(w io.Writer, name string, n, sample int, seed int64) error {
	switch name {
	case "osm", "userids", "ycsb", "consecutive":
		var keys []uint64
		switch name {
		case "osm":
			keys = dataset.OSM(n, seed)
		case "userids":
			keys = dataset.UserIDs(n, seed)
		case "ycsb":
			keys = dataset.YCSBKeys(n, seed)
		case "consecutive":
			keys = dataset.ConsecutiveU64(n, 1)
		}
		fmt.Fprintf(w, "%s: %d unique sorted 64-bit keys\n", name, len(keys))
		fmt.Fprintf(w, "  min=%#x max=%#x span=%.3g\n", keys[0], keys[len(keys)-1], float64(keys[len(keys)-1]-keys[0]))
		var sumGap float64
		for i := 1; i < len(keys); i++ {
			sumGap += float64(keys[i] - keys[i-1])
		}
		fmt.Fprintf(w, "  mean gap=%.1f\n", sumGap/float64(len(keys)-1))
		for i := 0; i < sample && i < len(keys); i++ {
			fmt.Fprintf(w, "  [%d] %#016x\n", i, keys[i])
		}
	case "emails":
		keys := dataset.Emails(n, seed)
		total := 0
		for _, k := range keys {
			total += len(k)
		}
		fmt.Fprintf(w, "emails: %d unique host-reversed addresses, avg len %.1f\n",
			len(keys), float64(total)/float64(len(keys)))
		for i := 0; i < sample && i < len(keys); i++ {
			fmt.Fprintf(w, "  [%d] %s\n", i, keys[i])
		}
	default:
		return fmt.Errorf("unknown dataset %q", name)
	}
	return nil
}

func printCDF(w io.Writer, wname string, n int, seed int64) error {
	spec, ok := workload.Specs[wname]
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	gen := workload.NewGenerator(spec, n, seed)
	const buckets = 40
	counts := make([]int, buckets)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		op := gen.Next()
		b := op.Index * buckets / n
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	fmt.Fprintf(w, "%s key-selection CDF over the sorted key space (Figure 11 style):\n", wname)
	cum := 0
	for i, c := range counts {
		cum += c
		frac := float64(cum) / draws
		bar := strings.Repeat("#", int(frac*50))
		fmt.Fprintf(w, "  %3d%% of keyspace | %-50s %5.1f%%\n", (i+1)*100/buckets, bar, 100*frac)
	}
	return nil
}

func printOps(w io.Writer, wname string, n, ops int, seed int64) error {
	spec, ok := workload.Specs[wname]
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	gen := workload.NewGenerator(spec, n, seed)
	kind := map[workload.OpKind]string{
		workload.OpRead: "READ", workload.OpScan: "SCAN", workload.OpInsert: "INSERT",
	}
	fmt.Fprintf(w, "%s: first %d operations over %d keys\n", wname, ops, n)
	for i := 0; i < ops; i++ {
		op := gen.Next()
		if op.Kind == workload.OpScan {
			fmt.Fprintf(w, "  %-6s idx=%-9d len=%d\n", kind[op.Kind], op.Index, op.ScanLen)
		} else {
			fmt.Fprintf(w, "  %-6s idx=%d\n", kind[op.Kind], op.Index)
		}
	}
	return nil
}
