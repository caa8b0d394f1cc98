// Command ahibench regenerates the paper's tables and figures.
//
// Usage:
//
//	ahibench -list
//	ahibench -exp fig12 -scale small
//	ahibench -all -scale tiny
//
// Experiment ids follow DESIGN.md §2 (fig2..fig20, tbl1..tbl4, abl-*).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ahi/internal/bench"
	"ahi/internal/obs"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (see -list)")
		scale  = flag.String("scale", "small", "scale: tiny|small|medium")
		all    = flag.Bool("all", false, "run every experiment")
		list   = flag.Bool("list", false, "list experiment ids")
		root   = flag.String("repo", ".", "repository root (for tbl4 LoC counting)")
		csv    = flag.Bool("csv", false, "render tables as CSV")
		trace  = flag.String("trace", "", "run the traced observability workload and write the dump (migration trace + epoch snapshots) to this file")
		obsSrv = flag.String("obs", "", "serve /metrics, /dump.json and pprof on this address (e.g. localhost:6060) while running")
	)
	flag.Parse()

	var o *obs.Observability
	if *trace != "" || *obsSrv != "" {
		o = obs.New(0, 0)
		o.PublishExpvar("ahi")
		if *obsSrv != "" {
			_, addr, err := o.Serve(*obsSrv)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("observability endpoint on http://%s/ (metrics, dump.json, debug/pprof)\n", addr)
		}
	}

	reg := bench.Registry(*root, *csv)
	if *list {
		for _, id := range bench.IDs(reg) {
			fmt.Printf("%-12s %s\n", id, reg[id].Title)
		}
		return
	}
	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	switch {
	case *trace != "":
		fmt.Printf("### traced — observability capture (scale %s)\n", sc.Name)
		if err := bench.RunTraced(sc, o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d := o.Dump()
		d.Recorded = time.Now().UTC().Format(time.RFC3339)
		d.Experiment = "traced"
		if *exp != "" {
			d.Experiment = *exp
		}
		d.Scale = sc.Name
		if err := obs.WriteDump(*trace, d); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *trace)
	case *all:
		if err := bench.RunAll(reg, sc, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *exp != "":
		e, ok := reg[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			os.Exit(2)
		}
		fmt.Printf("### %s — %s (scale %s)\n", e.ID, e.Title, sc.Name)
		if err := e.Run(sc, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}
