package blend

// End-to-end differential coverage for the mapped open path: a saved index
// reopened with OpenIndex must be indistinguishable, through the public
// query and maintenance surfaces, from the in-memory index it was saved
// from. The built reference never decodes a file, so it shares no code
// with the path under test.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"blend/internal/datalake"
)

// mmapLake is a moderately sized lake plus a seeker-friendly sample of its
// vocabulary.
func mmapLake() ([]*Table, []string) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "mmap-e2e", NumTables: 24, ColsPerTable: 4, RowsPerTable: 40,
		VocabSize: 1200, Seed: 41,
	})
	return lake.Tables, lake.Vocab[:6]
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

func runMmapPlan(t *testing.T, d *Discovery, vals []string) *Result {
	t.Helper()
	p := NewPlan()
	p.MustAddSeeker("sc", SC(vals[:3], 8))
	p.MustAddSeeker("kw", KW(vals[3:], 8))
	p.MustAddSeeker("mc", MC([][]string{{vals[0], vals[1]}}, 8))
	p.MustAddCombiner("all", Union(8), "sc", "kw", "mc")
	res, err := d.Run(context.Background(), p)
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
	for _, s := range []Seeker{SC(vals[:3], 8), KW(vals[3:], 8), MC([][]string{{vals[0], vals[1]}}, 8)} {
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
	w, g := runMmapPlan(t, want, vals), runMmapPlan(t, got, vals)
	if !reflect.DeepEqual(w.Tables, g.Tables) || !reflect.DeepEqual(w.Output, g.Output) {
		t.Fatalf("%s: plan diverges: want %v %v, got %v %v", step, w.Tables, w.Output, g.Tables, g.Output)
	}
}

// TestOpenIndexMatchesBuilt opens a saved index and checks it against the
// built index the file was saved from, at 1 and 4 shards: as opened, after
// the same add/remove/compact sequence on both, and after the mutated
// mapped index is saved and reopened.
func TestOpenIndexMatchesBuilt(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tables, vals := mmapLake()
			built := IndexTables(ColumnStore, tables, WithShards(shards))
			mapped, err := OpenIndex(saveIndexTemp(t, built))
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if st := mapped.Stats(); st.MappedBytes <= 0 {
				t.Fatalf("mapped index reports MappedBytes = %d", st.MappedBytes)
			}
			sameAnswers(t, "opened", built, mapped, vals)

			extra := datalake.GenJoinLake(datalake.JoinLakeConfig{
				Name: "mmap-extra", NumTables: 6, ColsPerTable: 4, RowsPerTable: 20,
				VocabSize: 1200, Seed: 42,
			}).Tables
			compacted := make([]int, 2)
			for i, d := range []*Discovery{built, mapped} {
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
			sameAnswers(t, "maintained", built, mapped, vals)

			back, err := OpenIndex(saveIndexTemp(t, mapped))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			sameAnswers(t, "reopened", built, back, vals)
		})
	}
}

// TestOpenIndexCloseIdempotent checks Close is safe to call twice and on
// built indexes (where there is no mapping to release).
func TestOpenIndexCloseIdempotent(t *testing.T) {
	tables, _ := mmapLake()
	built := IndexTables(ColumnStore, tables, WithShards(4))
	mapped, err := OpenIndex(saveIndexTemp(t, built))
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
}
