package blend

// End-to-end differential coverage for the open path: a saved index
// reopened with OpenIndex must be indistinguishable, through the public
// query and maintenance surfaces, from the in-memory index it was saved
// from, and a corrupt file must fail to open. The built reference never
// decodes a file, so it shares no code with the path under test.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"blend/internal/datalake"
	"blend/internal/storage"
)

// openLake is a moderately sized lake plus a seeker-friendly sample of its
// vocabulary.
func openLake() ([]*Table, []string) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "open-e2e", NumTables: 24, ColsPerTable: 4, RowsPerTable: 40,
		VocabSize: 1200, Seed: 41,
	})
	return lake.Tables, lake.Vocab[:6]
}

// openExtra is a batch of tables to append to openLake.
func openExtra() []*Table {
	return datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "open-extra", NumTables: 6, ColsPerTable: 4, RowsPerTable: 20,
		VocabSize: 1200, Seed: 42,
	}).Tables
}

// saveIndexTemp saves d to a fresh file and returns its path.
func saveIndexTemp(t *testing.T, d *Discovery) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lake.blend")
	if err := d.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSeekers are the seekers the differentials ask, over openLake's
// vocabulary sample.
func openSeekers(vals []string) []Seeker {
	return []Seeker{SC(vals[:3], 8), KW(vals[3:], 8), MC([][]string{{vals[0], vals[1]}}, 8)}
}

// openPlan unions the three openSeekers.
func openPlan(vals []string) *Plan {
	p := NewPlan()
	p.MustAddSeeker("sc", SC(vals[:3], 8))
	p.MustAddSeeker("kw", KW(vals[3:], 8))
	p.MustAddSeeker("mc", MC([][]string{{vals[0], vals[1]}}, 8))
	p.MustAddCombiner("all", Union(8), "sc", "kw", "mc")
	return p
}

func runOpenPlan(t *testing.T, d *Discovery, vals []string) *Result {
	t.Helper()
	res, err := d.Run(context.Background(), openPlan(vals))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAnswers fails unless got answers the SC, KW and MC seekers and the
// Union plan over them exactly as want does, scores included.
func sameAnswers(t *testing.T, step string, want, got *Discovery, vals []string) {
	t.Helper()
	if want.NumTables() != got.NumTables() || want.LiveTables() != got.LiveTables() ||
		want.NumShards() != got.NumShards() {
		t.Fatalf("%s: shape: want %d/%d/%d tables/live/shards, got %d/%d/%d", step,
			want.NumTables(), want.LiveTables(), want.NumShards(),
			got.NumTables(), got.LiveTables(), got.NumShards())
	}
	for _, s := range openSeekers(vals) {
		w, err := want.Seek(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Seek(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) == 0 {
			t.Fatalf("%s: %v finds nothing; the differential would be vacuous", step, s)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: %v diverges: want %v, got %v", step, s, w, g)
		}
	}
	w, g := runOpenPlan(t, want, vals), runOpenPlan(t, got, vals)
	if !reflect.DeepEqual(w.Tables, g.Tables) || !reflect.DeepEqual(w.Output, g.Output) {
		t.Fatalf("%s: plan diverges: want %v %v, got %v %v", step, w.Tables, w.Output, g.Tables, g.Output)
	}
}

// TestOpenIndexMatchesBuilt opens a saved index and checks it against the
// built index the file was saved from, at 1 and 4 shards: as opened, after
// the same add/remove/compact sequence on both, and after the mutated
// opened index is saved and reopened.
func TestOpenIndexMatchesBuilt(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tables, vals := openLake()
			built := IndexTables(ColumnStore, tables, WithShards(shards))
			opened, err := OpenIndex(saveIndexTemp(t, built))
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			sameAnswers(t, "opened", built, opened, vals)

			extra := openExtra()
			compacted := make([]int, 2)
			for i, d := range []*Discovery{built, opened} {
				if _, err := d.AddTables(context.Background(), extra); err != nil {
					t.Fatal(err)
				}
				if err := d.RemoveTable(3); err != nil {
					t.Fatal(err)
				}
				n, err := d.Compact()
				if err != nil {
					t.Fatal(err)
				}
				compacted[i] = n
			}
			if compacted[0] != 1 || compacted[1] != 1 {
				t.Fatalf("Compact removed %v tables, want 1 each", compacted)
			}
			sameAnswers(t, "maintained", built, opened, vals)

			back, err := OpenIndex(saveIndexTemp(t, opened))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			sameAnswers(t, "reopened", built, back, vals)
		})
	}
}

// TestOpenIndexCloseIdempotent checks Close is safe to call twice and on
// built indexes.
func TestOpenIndexCloseIdempotent(t *testing.T) {
	tables, _ := openLake()
	built := IndexTables(ColumnStore, tables, WithShards(4))
	opened, err := OpenIndex(saveIndexTemp(t, built))
	if err != nil {
		t.Fatal(err)
	}
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenIndexCorruptSectionFailsTyped flips one byte in the middle of
// each section of each shard of a saved 4-shard index, one section at a
// time. The footer stays valid, so only the decode at open can see the
// damage: LoadFile and OpenIndex must both fail with ErrBadIndex, and
// neither may panic.
func TestOpenIndexCorruptSectionFailsTyped(t *testing.T) {
	tables, _ := openLake()
	path := saveIndexTemp(t, IndexTables(ColumnStore, tables, WithShards(4)))
	info, err := storage.InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.blend")
	opens := []struct {
		name string
		open func() error
	}{
		{"LoadFile", func() error { _, err := storage.LoadFile(bad); return err }},
		{"OpenIndex", func() error { _, err := OpenIndex(bad); return err }},
	}
	for i, sh := range info.Shards {
		for _, sec := range sh.Sections {
			t.Run(fmt.Sprintf("shard%d/%s", i, sec.Name), func(t *testing.T) {
				if sec.Bytes == 0 {
					t.Fatal("empty section: every section holds at least its count")
				}
				data := bytes.Clone(clean)
				data[sec.Off+sec.Bytes/2] ^= 0xFF
				if err := os.WriteFile(bad, data, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, o := range opens {
					err := func() error {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s panicked: %v", o.name, r)
							}
						}()
						return o.open()
					}()
					if !errors.Is(err, ErrBadIndex) {
						t.Fatalf("%s error = %v, want ErrBadIndex", o.name, err)
					}
				}
			})
		}
	}
}

// lifetimeAnswer is everything one reader asks of one generation: each of
// openSeekers' hits with their names, and openPlan's output.
type lifetimeAnswer struct {
	Seeks  []Hits
	Names  [][]string
	Plan   Hits
	Tables []string
}

// answerAt asks s every question of a lifetimeAnswer.
func answerAt(s *Snapshot, vals []string) (lifetimeAnswer, error) {
	var a lifetimeAnswer
	for _, sk := range openSeekers(vals) {
		h, err := s.Seek(context.Background(), sk)
		if err != nil {
			return a, err
		}
		a.Seeks = append(a.Seeks, h)
		a.Names = append(a.Names, s.TableNames(h))
	}
	res, err := s.Run(context.Background(), openPlan(vals))
	if err != nil {
		return a, err
	}
	a.Plan, a.Tables = res.Output, res.Tables
	return a, nil
}

// TestOpenedIndexLifetimeUnderWrites races readers against a writer on an
// opened 4-shard index. One reader queries a Snapshot pinned before any
// write, two pin the current generation per round (and also time-travel
// to it through Discovery.Seek), while the writer runs AddTables,
// RemoveTable, Compact and Close. Every answer must equal the built
// index's answer at the same generation, or be the closed error; after
// Close every reader sees the closed error. Run it under -race.
func TestOpenedIndexLifetimeUnderWrites(t *testing.T) {
	tables, vals := openLake()
	built := IndexTables(ColumnStore, tables, WithShards(4))
	opened, err := OpenIndex(saveIndexTemp(t, built))
	if err != nil {
		t.Fatal(err)
	}
	writes := []func(d *Discovery) error{
		func(d *Discovery) error { _, err := d.AddTables(context.Background(), openExtra()); return err },
		func(d *Discovery) error { return d.RemoveTable(3) },
		func(d *Discovery) error { _, err := d.Compact(); return err },
	}
	want := map[uint64]lifetimeAnswer{}
	record := func() {
		s, err := built.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want[s.Generation()], err = answerAt(s, vals); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	record()
	for _, w := range writes {
		if err := w(built); err != nil {
			t.Fatal(err)
		}
		record()
	}
	if len(want) != len(writes)+1 {
		t.Fatalf("built index published generations %v, want %d", want, len(writes)+1)
	}

	early, err := opened.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// rounds signals that a reader answered correctly; a signal that finds
	// the buffer full is dropped, since the writer only waits for some.
	rounds := make(chan struct{}, 1)
	stop := make(chan struct{})
	errs := make(chan error, 3)
	check := func(gen uint64, got lifetimeAnswer, err error) error {
		if err != nil {
			if isClosedErr(err) {
				return nil
			}
			return fmt.Errorf("generation %d: %w", gen, err)
		}
		if !reflect.DeepEqual(got, want[gen]) {
			return fmt.Errorf("generation %d: answered %+v, built index answers %+v", gen, got, want[gen])
		}
		select {
		case rounds <- struct{}{}:
		default:
		}
		return nil
	}
	reader := func(next func() error) {
		for {
			select {
			case <-stop:
				errs <- next()
				return
			default:
			}
			if err := next(); err != nil {
				errs <- err
				return
			}
		}
	}
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(stop) })
	defer func() { stopReaders(); wg.Wait() }() // also when a t.Fatal below ends the test early
	wg.Add(3)
	go func() {
		defer wg.Done()
		reader(func() error {
			got, err := answerAt(early, vals)
			return check(early.Generation(), got, err)
		})
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			reader(func() error {
				s, err := opened.Snapshot()
				if err != nil {
					return check(0, lifetimeAnswer{}, err)
				}
				got, err := answerAt(s, vals)
				if err := check(s.Generation(), got, err); err != nil {
					return err
				}
				g := s.Generation()
				h, err := opened.Seek(context.Background(), openSeekers(vals)[0], WithAsOf(g))
				if err != nil {
					return check(g, lifetimeAnswer{}, err)
				}
				if !reflect.DeepEqual(h, want[g].Seeks[0]) {
					return fmt.Errorf("WithAsOf(%d) answered %v, built index answers %v", g, h, want[g].Seeks[0])
				}
				return nil
			})
		}()
	}
	// Let the readers complete a few rounds between writes, so every
	// generation is read while the next one is being built.
	progress := func() {
		t.Helper()
		for range 3 {
			select {
			case <-rounds:
			case <-time.After(30 * time.Second):
				t.Fatal("readers made no progress")
			}
		}
	}
	for _, w := range writes {
		progress()
		if err := w(opened); err != nil {
			t.Fatal(err)
		}
	}
	progress()
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	stopReaders()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After Close, the early handle and a fresh pin both fail closed.
	if _, err := answerAt(early, vals); !isClosedErr(err) {
		t.Fatalf("pinned snapshot after Close: err = %v, want the closed error", err)
	}
	if _, err := opened.Snapshot(); !isClosedErr(err) {
		t.Fatalf("Snapshot after Close: err = %v, want the closed error", err)
	}
}
