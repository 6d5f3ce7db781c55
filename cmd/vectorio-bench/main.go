// Command vectorio-bench regenerates the paper's evaluation artifacts: every
// table and figure of §5, selected by experiment id.
//
// Usage:
//
//	vectorio-bench -exp fig8            # one experiment
//	vectorio-bench -exp all             # the full evaluation
//	vectorio-bench -list                # show experiment ids
//	vectorio-bench -exp fig17 -scale-mul 4 -quick
//
// -scale-mul multiplies every dataset's default scale factor (larger means
// smaller real files and faster runs); -quick shrinks parameter sweeps.
//
// Reported times are virtual (modeled full-scale) seconds. Wall-clock
// performance is measured by benchmark/ (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..table3, fig8..fig20) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scaleMul := flag.Float64("scale-mul", 1, "multiply dataset scale factors (bigger = faster, smaller files)")
	quick := flag.Bool("quick", false, "shrink parameter sweeps")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{ScaleMul: *scaleMul, Quick: *quick}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vectorio-bench:", err)
			os.Exit(1)
		}
		tbl.Print(os.Stdout)
		fmt.Printf("   (%s regenerated in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
	}
}
