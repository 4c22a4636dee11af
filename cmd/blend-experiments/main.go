// Command blend-experiments regenerates the tables and figures of the
// paper's evaluation (§VIII) against the synthetic lakes described in
// DESIGN.md. Run without flags it executes every experiment in paper
// order; -exp selects one, -scale full enlarges the workloads.
//
//	blend-experiments                 # run everything at small scale
//	blend-experiments -exp optimizer  # only Table IV
//	blend-experiments -list           # list experiment ids
//	blend-experiments -scale full     # larger lakes / more queries
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"blend/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	scaleFlag := flag.String("scale", "small", "workload scale: small or full")
	shards := flag.Int("shards", experiments.Shards, "shard count for the sharding experiment")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	experiments.Shards = *shards

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	scale := experiments.Small
	if *scaleFlag == "full" {
		scale = experiments.Full
	}

	run := experiments.All()
	if *exp != "" {
		e := experiments.ByID(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "blend-experiments: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run = []experiments.Experiment{*e}
	}
	ctx := context.Background()
	for _, e := range run {
		start := time.Now()
		rep := e.Run(ctx, scale)
		fmt.Print(rep.String())
		fmt.Printf("   [%s in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
