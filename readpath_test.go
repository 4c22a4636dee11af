package blend

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// readEntry is one of the four query entry points, called against a
// Discovery and a Snapshot handle pinned on it before the case ran.
type readEntry struct {
	name     string
	snapshot bool // a Snapshot method: WithAsOf is ignored
	call     func(d *Discovery, s *Snapshot, ctx context.Context, opts ...RunOption) error
}

func readEntries() []readEntry {
	plan := NewPlan()
	plan.MustAddSeeker("kw", KW(deps, 5))
	return []readEntry{
		{"Discovery.Run", false, func(d *Discovery, _ *Snapshot, ctx context.Context, opts ...RunOption) error {
			_, err := d.Run(ctx, plan, opts...)
			return err
		}},
		{"Discovery.Seek", false, func(d *Discovery, _ *Snapshot, ctx context.Context, opts ...RunOption) error {
			_, err := d.Seek(ctx, SC(deps, 5), opts...)
			return err
		}},
		{"Snapshot.Run", true, func(_ *Discovery, s *Snapshot, ctx context.Context, opts ...RunOption) error {
			_, err := s.Run(ctx, plan, opts...)
			return err
		}},
		{"Snapshot.Seek", true, func(_ *Discovery, s *Snapshot, ctx context.Context, opts ...RunOption) error {
			_, err := s.Seek(ctx, SC(deps, 5), opts...)
			return err
		}},
	}
}

// isClosedErr matches the error every query returns after Close.
func isClosedErr(err error) bool {
	return ErrorCodeOf(err) == CodeInternal && strings.Contains(err.Error(), "engine is closed")
}

// TestReadPathEntryPoints pins the one read path: Discovery.Run and
// Discovery.Seek pin a generation and run through the same code as
// Snapshot.Run and Snapshot.Seek, so all four handle deadlines,
// cancellation, a nil ctx, a closed Discovery and time travel alike.
func TestReadPathEntryPoints(t *testing.T) {
	var nilCtx context.Context // a nil ctx means context.Background()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range readEntries() {
		t.Run(e.name, func(t *testing.T) {
			d := IndexTables(ColumnStore, fig1Tables())
			s, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			bg := context.Background()

			if err := e.call(d, s, bg, WithDeadline(time.Nanosecond)); !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("expired deadline: %v", err)
			}
			if err := e.call(d, s, canceled); !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled ctx: %v", err)
			}
			if err := e.call(d, s, nilCtx); err != nil {
				t.Fatalf("nil ctx: %v", err)
			}
			if err := e.call(d, s, nilCtx, WithDeadline(time.Minute)); err != nil {
				t.Fatalf("nil ctx with deadline: %v", err)
			}

			// Evict generation 1: publish past a retention window of one.
			d.SetRetention(1)
			extra := NewTable("Extra", "A")
			extra.MustAppendRow("HR")
			if err := d.AddTable(extra); err != nil {
				t.Fatal(err)
			}
			err = e.call(d, s, bg, WithAsOf(1))
			if e.snapshot && err != nil {
				t.Fatalf("WithAsOf on a snapshot must be ignored: %v", err)
			}
			if !e.snapshot && !errors.Is(err, ErrGenerationGone) {
				t.Fatalf("evicted WithAsOf: %v", err)
			}

			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for _, opts := range [][]RunOption{nil, {WithAsOf(1)}, {WithAsOf(d.Generation())}} {
				if err := e.call(d, s, bg, opts...); !isClosedErr(err) {
					t.Fatalf("after Close (%d options): %v", len(opts), err)
				}
			}
		})
	}
}

// TestSnapshotAtAfterClose pins that a closed Discovery reports itself
// closed for historical generations too, not ErrGenerationGone (which
// the service maps to HTTP 410).
func TestSnapshotAtAfterClose(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	gen := d.Generation()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []uint64{0, gen, gen + 1} {
		if _, err := d.SnapshotAt(g); !isClosedErr(err) || errors.Is(err, ErrGenerationGone) {
			t.Fatalf("SnapshotAt(%d) after Close: %v", g, err)
		}
	}
}
