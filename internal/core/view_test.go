package core

import (
	"context"
	"testing"
)

// testView pins the engine's current snapshot and returns the execution
// view, for tests poking view-level internals.
func testView(t *testing.T, e *Engine) *view {
	t.Helper()
	sn, err := e.pin(0)
	if err != nil {
		t.Fatal(err)
	}
	return &view{Engine: e, sn: sn}
}

// runDirect executes a seeker through the dispatcher against e's current
// snapshot with rewrite rw — the per-call pin tests use to compare
// execution paths directly.
func runDirect(ctx context.Context, e *Engine, s Seeker, rw Rewrite) (Hits, RunStats, error) {
	sn, err := e.pin(0)
	if err != nil {
		return nil, RunStats{}, err
	}
	return (&view{Engine: e, sn: sn}).seek(ctx, s, rw)
}
