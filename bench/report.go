package main

import (
	"fmt"
	"io"
	"math"
)

// runOne runs one workload in a child process, so that its peak RSS is
// its own, and decodes the result line.
func runOne(cfg config, workload string, trace bool) (*result, error) {
	cfg.workload = workload
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-seconds", fmt.Sprint(cfg.seconds), "-trace", t, "-out", cfg.out}
	if cfg.update != "" {
		args = append(args, "-update", cfg.update)
	}
	var res result
	if err := reexec(cfg, &res, args...); err != nil {
		return nil, err
	}
	return &res, nil
}

// runReport runs all four workloads, measured then (unless measuredOnly)
// traced, prints every metric by name with its unit, and fails if any
// answer was wrong. It returns the end-to-end values per workload.
func runReport(cfg config, out io.Writer, measuredOnly bool) (map[string]map[string]float64, error) {
	values := map[string]map[string]float64{}
	wrong := 0
	for _, name := range workloadNames {
		values[name] = map[string]float64{}
		for _, trace := range []bool{false, true} {
			if trace && measuredOnly {
				continue
			}
			res, err := runOne(cfg, name, trace)
			if err != nil {
				return nil, err
			}
			kind, defs := "end-to-end", endToEndDefs
			if trace {
				kind, defs = "per-layer", perLayerDefs
			}
			fmt.Fprintf(out, "\n%s, %s (seed %d, %gs): attempted %d, failed %d\n", name, kind, cfg.seed, cfg.seconds, res.Attempted, res.Failed)
			for _, d := range defs {
				v := res.Metrics[d.name]
				fmt.Fprintf(out, "  %-40s %14.6g %s\n", d.name, v.Value, v.Unit)
				if !trace {
					values[name][d.name] = v.Value
				}
			}
			wrong += res.Failed
		}
	}
	if wrong > 0 {
		return values, fmt.Errorf("%d operations failed or answered wrongly", wrong)
	}
	return values, nil
}

// runAA measures the same code twice and holds the two sets to the
// benchmark's own bounds: a metric that cannot tell A from A within its
// bound cannot tell A from B.
func runAA(cfg config) error {
	var sets [2]map[string]map[string]float64
	for i := range sets {
		v, err := runReport(cfg, io.Discard, true)
		if err != nil {
			return err
		}
		sets[i] = v
	}
	fmt.Printf("# A/A: two sets of runs of the same code (seed %d, %gs windows)\n\n", cfg.seed, cfg.seconds)
	fmt.Println("| workload | metric | first | second | worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	over := 0
	for _, name := range workloadNames {
		for _, d := range endToEndDefs {
			a, b := sets[0][name][d.name], sets[1][name][d.name]
			// How much worse the second set is than the first, as a share
			// of the first, in the metric's own direction.
			gap := (b - a) / a
			if d.higherIsBetter {
				gap = -gap
			}
			verdict := "ok"
			if math.Abs(gap) > d.bound {
				verdict = "OVER"
				over++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %s |\n", name, d.name, a, b, gap*100, d.bound*100, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
