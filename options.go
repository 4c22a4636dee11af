package blend

import (
	"context"
	"time"
)

// RunOption tunes one Run or Seek call. Options compose orthogonally:
//
//	res, err := d.Run(ctx, plan,
//		blend.WithDeadline(2*time.Second),
//		blend.WithExplain())
//
// The zero configuration (no options) runs the plan with the two-phase
// optimizer enabled — the paper's default BLEND configuration. Every plan
// runs on the concurrent DAG scheduler at GOMAXPROCS width; no option
// changes how it executes.
type RunOption func(*runConfig)

type runConfig struct {
	noOptimize bool
	deadline   time.Duration
	explain    bool
	asOf       uint64
}

// WithDeadline bounds the call's wall-clock time: the run's context is
// derived with this timeout, and on expiry the call fails with
// ErrDeadlineExceeded. It composes with (and never extends) a deadline
// already carried by the caller's ctx.
func WithDeadline(d time.Duration) RunOption {
	return func(c *runConfig) { c.deadline = d }
}

// WithoutOptimizer disables operator reordering and query rewriting — the
// paper's B-NO baseline. Results are set-equivalent to optimized runs;
// execution typically scans more of the index.
func WithoutOptimizer() RunOption {
	return func(c *runConfig) { c.noOptimize = true }
}

// WithExplain records, per seeker node, the exact SQL executed against
// the AllTables relation — optimizer rewrites included — into
// Result.SQLByNode, at negligible cost.
func WithExplain() RunOption {
	return func(c *runConfig) { c.explain = true }
}

// WithAsOf executes the call against retained historical generation gen
// instead of the current index state (time travel): the query sees the
// lake exactly as it was when generation gen was published, regardless of
// ingestion since. Zero means current. A generation that has fallen out
// of — or never entered — the retention window (see
// Discovery.SetRetention) fails with ErrGenerationGone before anything
// executes. Ignored by Snapshot.Run and Snapshot.Seek, where the handle
// already fixes the generation.
func WithAsOf(gen uint64) RunOption {
	return func(c *runConfig) { c.asOf = gen }
}

// fold applies the options to a zero configuration.
func fold(opts []RunOption) runConfig {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// apply folds the options and derives the call's context: ctx bounded by
// WithDeadline when one is set. The returned cancel is never nil.
func apply(ctx context.Context, opts []RunOption) (context.Context, runConfig, context.CancelFunc) {
	cfg := fold(opts)
	if cfg.deadline <= 0 {
		return ctx, cfg, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.deadline)
	return ctx, cfg, cancel
}
