package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"blend"
	"blend/internal/core"
	"blend/internal/datalake"
)

// RunOptimizer regenerates Table IV: random two-seeker intersection plans
// executed in random order, in the optimizer's order, and in the oracle
// (faster) order, reporting runtime gain and ordering accuracy. The lake
// and sampling protocol follow §VIII-C (Gittables as the target lake and
// the source of random inputs).
//
// Accuracy judges the optimizer's first seeker against the faster forced
// order's, so it moves with wall-clock noise. Work judges it against the
// forced order with the lower Σ SQLRows (rows every seeker produced, an
// exact count); pairs whose orders do the same work are skipped, and the
// column reads correct/judged.
func RunOptimizer(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "optimizer", Title: "Table IV: optimizer effectiveness"}
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "opt", NumTables: 50 * scale.factor(), ColsPerTable: 4,
		RowsPerTable: 80, VocabSize: 3000, Seed: 31,
	})
	e := blend.IndexTables(blend.ColumnStore, lake.Tables).Engine()

	plans := 12 * scale.factor()
	rng := rand.New(rand.NewSource(32))
	r.Printf("%-6s %10s %10s %10s | %9s %9s | %8s %8s",
		"Seeker", "Rand", "BLEND", "Ideal", "gain-B", "gain-I", "Accuracy", "Work")
	for _, cat := range []string{"Mixed", "SC", "MC", "C"} {
		var randT, blendT, idealT time.Duration
		correct, total := 0, 0
		workCorrect, workTotal := 0, 0
		for p := 0; p < plans; p++ {
			s0, s1 := samplePair(rng, lake, cat)
			if s0 == nil || s1 == nil {
				continue
			}
			plan := core.NewPlan()
			plan.MustAddSeeker("s0", s0)
			plan.MustAddSeeker("s1", s1)
			plan.MustAddCombiner("i", core.NewIntersect(10), "s0", "s1")

			run := func(order []string) (time.Duration, int) {
				res, err := e.Run(ctx, plan, core.RunOptions{Optimize: true, ForcedOrder: order})
				if err != nil {
					panic(err)
				}
				work := 0
				for _, st := range res.Stats {
					work += st.SQLRows
				}
				return res.Duration, work
			}
			tA, wA := run([]string{"s0", "s1"})
			tB, wB := run([]string{"s1", "s0"})
			// Rand is the expectation over the two orders; Ideal the min.
			randT += (tA + tB) / 2
			if tA < tB {
				idealT += tA
			} else {
				idealT += tB
			}
			res, err := e.Run(ctx, plan, core.RunOptions{Optimize: true})
			if err != nil {
				panic(err)
			}
			blendT += res.Duration
			fasterFirst := "s0"
			if tB < tA {
				fasterFirst = "s1"
			}
			first := ""
			if len(res.SeekerOrder) > 0 {
				first = res.SeekerOrder[0]
			}
			if first == fasterFirst {
				correct++
			}
			total++
			if wA != wB {
				lighterFirst := "s0"
				if wB < wA {
					lighterFirst = "s1"
				}
				if first == lighterFirst {
					workCorrect++
				}
				workTotal++
			}
		}
		gain := func(t time.Duration) string {
			if randT == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*(1-float64(t)/float64(randT)))
		}
		acc := "-"
		if total > 0 {
			acc = fmt.Sprintf("%.1f%%", 100*float64(correct)/float64(total))
		}
		r.Printf("%-6s %10s %10s %10s | %9s %9s | %8s %8s",
			cat, ms(randT), ms(blendT), ms(idealT), gain(blendT), gain(idealT), acc,
			fmt.Sprintf("%d/%d", workCorrect, workTotal))
	}
	return r
}

// samplePair draws two seekers of the given category with deliberately
// different input sizes, so the orders differ in cost.
func samplePair(rng *rand.Rand, lake *datalake.JoinLake, cat string) (core.Seeker, core.Seeker) {
	smallCol := lake.QueryColumn(3 + rng.Intn(5))
	bigCol := lake.QueryColumn(40 + rng.Intn(60))
	switch cat {
	case "SC":
		return core.NewSC(smallCol, 10), core.NewSC(bigCol, 10)
	case "MC":
		a, _ := lake.QueryTuples(2+rng.Intn(2), 2)
		b, _ := lake.QueryTuples(8+rng.Intn(8), 3)
		if len(a) == 0 || len(b) == 0 {
			return nil, nil
		}
		return core.NewMC(a, 10), core.NewMC(b, 10)
	case "C":
		ka := lake.QueryColumn(4 + rng.Intn(4))
		kb := lake.QueryColumn(30 + rng.Intn(30))
		ta := randTargets(rng, len(ka))
		tb := randTargets(rng, len(kb))
		return core.NewCorrelation(ka, ta, 10), core.NewCorrelation(kb, tb, 10)
	default: // Mixed: one cheap kind vs one expensive kind, random split.
		tuples, _ := lake.QueryTuples(8+rng.Intn(8), 2)
		if len(tuples) == 0 {
			return nil, nil
		}
		switch rng.Intn(3) {
		case 0:
			return core.NewKW(smallCol, 10), core.NewMC(tuples, 10)
		case 1:
			return core.NewSC(bigCol, 10), core.NewMC(tuples, 10)
		default:
			return core.NewSC(smallCol, 10), core.NewCorrelation(bigCol, randTargets(rng, len(bigCol)), 10)
		}
	}
}

func randTargets(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}
