// Command mochi-bench runs the evaluation suite (EXPERIMENTS.md) and
// prints one table per experiment. Every leg is a registered
// experiment: the RPC, reconfiguration, migration, membership and
// replication experiments E1–E10, the online-resharding leg (E11),
// the transport connection-scaling sweep (E12), the SWIM simulation
// curves (E14), the raft hot-path sweep (E15) and the storage-engine
// concurrency sweep (E16).
//
// Usage:
//
//	mochi-bench [-quick] [-only E3,E5]
//
// -quick runs the reduced sweeps CI uses; without it each experiment
// runs its full sweep. An unknown ID in -only exits with status 2.
// A table that ends in a trace-hash column (E14) is followed by a
// "trace-identity:" line with one hash per row, so two same-seed runs
// can be diffed for replay identity.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mochi/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (CI mode)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	flag.Parse()

	runners, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mochi-bench: %v\n", err)
		os.Exit(2)
	}
	failed := 0
	for _, r := range runners {
		fmt.Printf("running %s: %s ...\n", r.ID, r.Name)
		start := time.Now()
		table, err := r.Run(*quick)
		if table != nil {
			table.Render(os.Stdout)
			if n := len(table.Columns); n > 0 && table.Columns[n-1] == "trace" {
				hashes := make([]string, 0, len(table.Rows))
				for _, row := range table.Rows {
					hashes = append(hashes, row[n-1])
				}
				fmt.Printf("trace-identity: %s\n", strings.Join(hashes, " "))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n\n", r.ID, err)
			failed++
			continue
		}
		fmt.Printf("(%s completed in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
