package core

import (
	"context"
	"errors"
	"time"

	"blend/internal/berr"
)

// RunOptions tune plan execution. The context is NOT part of the options:
// Run and RunSeeker take it as their first parameter, so cancellation
// composes the same way across the library, the CLI, and the HTTP service.
// Neither is the generation: a plan runs on the current one through
// Engine.Run, or on a retained one through a SnapshotAt handle.
type RunOptions struct {
	// Optimize enables the two-phase optimizer (execution-group
	// reordering + query rewriting). Disabled it reproduces B-NO, the
	// paper's unoptimized baseline.
	Optimize bool
	// ForcedOrder, when non-empty, fixes the relative execution order of
	// seekers inside execution groups (used by the optimizer experiments
	// to run random and oracle orders). Ids absent from the slice keep
	// their ranked position.
	ForcedOrder []string
	// Explain records, per seeker node, the exact SQL statement executed
	// against the AllTables relation — including any optimizer rewrite
	// predicates — into PlanResult.SQLByNode.
	Explain bool
}

// PlanResult is the outcome of executing a discovery plan.
type PlanResult struct {
	// Output holds the scored tables of the plan's output node.
	Output Hits
	// Tables holds the output table names, best first.
	Tables []string
	// NodeHits maps every node id to its result.
	NodeHits map[string]Hits
	// Stats maps seeker node ids to execution diagnostics.
	Stats map[string]RunStats
	// SQLByNode maps seeker node ids to the SQL statement the node
	// executed — or, for nodes the native fast path served, the SQL it
	// made unnecessary (rendered for diagnostics only; the hot path
	// never generates it). Populated only under RunOptions.Explain.
	SQLByNode map[string]string
	// PathByNode maps seeker node ids to the execution path that served
	// them: "native", "sql", or "ann", with " (cached)" appended when the
	// result came from the engine's result cache. Populated only under
	// RunOptions.Explain; per-run stats always carry the same facts in
	// Stats[id].Path / Stats[id].CacheHit.
	PathByNode map[string]string
	// SeekerOrder is the deterministic seeker order: topological order
	// with execution groups expanded at their ranked positions and
	// Difference subtrahends hoisted before their rewritten minuends —
	// the order a one-at-a-time resolver would execute. It is the same on
	// every run of a plan, although the scheduler completes seekers
	// concurrently; see CompletionOrder for what actually happened.
	SeekerOrder []string
	// CompletionOrder records the order seekers actually finished in. It
	// is timing-dependent whenever independent seekers overlap.
	CompletionOrder []string
	// PeakConcurrency is the maximum number of seekers observed running
	// simultaneously — worker-pool instrumentation for verifying that a
	// plan actually overlapped its independent seekers. It never exceeds
	// GOMAXPROCS.
	PeakConcurrency int
	// Duration is the total wall-clock execution time, including
	// optimization overhead (the paper reports optimizer time as part of
	// BLEND's runtime).
	Duration time.Duration
}

// Run executes the plan against the current generation: it pins it and
// runs the plan through Snapshot.Run. The pinned generation
// is read lock-free, so Run is safe to call concurrently with other runs
// and with index mutations — neither side ever waits for the other.
func (e *Engine) Run(ctx context.Context, p *Plan, opts RunOptions) (*PlanResult, error) {
	s, err := e.SnapshotAt(0)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Run(ctx, p, opts)
}

// contextError types an execution failure that came from the context as
// canceled/deadline under op; an unrelated error racing with cancellation
// keeps its own classification.
func contextError(op string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return berr.FromContext(op, err)
	}
	return err
}

// newPlanExec validates p and prepares its execution against v, returning
// the plan's topological order alongside.
func newPlanExec(v *view, p *Plan, opts RunOptions) (*planExec, []string, error) {
	topo, err := p.validate()
	if err != nil {
		return nil, nil, err
	}
	res := &PlanResult{
		NodeHits: make(map[string]Hits, len(p.nodes)),
		Stats:    make(map[string]RunStats),
	}
	if opts.Explain {
		res.SQLByNode = make(map[string]string)
		res.PathByNode = make(map[string]string)
	}

	// Membership maps for optimization decisions.
	groupOf := make(map[string]*executionGroup)
	var groups []executionGroup
	excludeFrom := make(map[string]string) // minuend seeker -> subtrahend node
	if opts.Optimize {
		groups = p.findExecutionGroups()
		for gi := range groups {
			for _, m := range groups[gi].members {
				groupOf[m] = &groups[gi]
			}
		}
		consumers := p.consumers()
		for _, id := range p.order {
			n := p.nodes[id]
			if n.isSeeker() || n.combiner.Kind() != Difference || len(n.inputs) != 2 {
				continue
			}
			minuend := n.inputs[0]
			mn := p.nodes[minuend]
			// Only rewrite a seeker exclusively owned by this combiner,
			// and only when it is not already inside an intersect group.
			if mn != nil && mn.isSeeker() && len(consumers[minuend]) == 1 && groupOf[minuend] == nil {
				excludeFrom[minuend] = n.inputs[1]
			}
		}
	}

	// Rank execution-group members up front: ranking needs only index
	// statistics, never intermediate results, so the scheduler and the
	// deterministic SeekerOrder share one ranking.
	rankedOf := make(map[string][]string, len(groups))
	for gi := range groups {
		order := v.rankSeekers(p, groups[gi].members)
		if len(opts.ForcedOrder) > 0 {
			order = applyForcedOrder(order, opts.ForcedOrder)
		}
		rankedOf[groups[gi].combiner] = order
	}

	return &planExec{
		v:           v,
		p:           p,
		res:         res,
		optimize:    opts.Optimize,
		explain:     opts.Explain,
		groupOf:     groupOf,
		excludeFrom: excludeFrom,
		rankedOf:    rankedOf,
	}, topo, nil
}

// RunSeeker executes a single seeker outside any plan against the
// current generation (the "simple task" mode of §VII-A): pin, then run
// through Snapshot.RunSeeker.
func (e *Engine) RunSeeker(ctx context.Context, s Seeker) (Hits, RunStats, error) {
	sn, err := e.SnapshotAt(0)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer sn.Release()
	return sn.RunSeeker(ctx, s)
}

// applyForcedOrder reorders ranked ids so that ids listed in forced appear
// in forced's relative order; unlisted ids keep their ranked positions.
func applyForcedOrder(ranked, forced []string) []string {
	pos := make(map[string]int, len(forced))
	for i, id := range forced {
		pos[id] = i
	}
	// Collect ranked ids that are constrained, in forced order.
	var constrained []string
	for _, id := range forced {
		for _, r := range ranked {
			if r == id {
				constrained = append(constrained, id)
				break
			}
		}
	}
	out := make([]string, 0, len(ranked))
	ci := 0
	for _, id := range ranked {
		if _, ok := pos[id]; ok {
			out = append(out, constrained[ci])
			ci++
		} else {
			out = append(out, id)
		}
	}
	return out
}
