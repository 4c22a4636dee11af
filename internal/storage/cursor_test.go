package storage

import (
	"fmt"
	"reflect"
	"testing"

	"blend/internal/table"
	"blend/internal/xash"
)

// cursorEntry is one posting as a cursor reports it.
type cursorEntry struct {
	pos, tid, cid, rid int32
	super              xash.Key
}

// drain collects every entry of a cursor, with super keys when super is
// set, checking the block contract on the way.
func drain(t *testing.T, c PostingCursor, super bool) []cursorEntry {
	t.Helper()
	var blk PostingBlock
	var out []cursorEntry
	for c.Next(&blk, super) {
		if blk.N <= 0 || blk.N > BlockSize {
			t.Fatalf("block of %d entries", blk.N)
		}
		for i := range blk.N {
			e := cursorEntry{pos: blk.Pos[i], tid: blk.TID[i], cid: blk.CID[i], rid: blk.RID[i]}
			if super {
				e.super = blk.Super[i]
			}
			out = append(out, e)
		}
	}
	if blk.N != 0 || c.Next(&blk, super) {
		t.Fatal("an exhausted cursor yielded again")
	}
	return out
}

// positions lists the entry positions the store's cursor yields for v.
func positions(t *testing.T, s *ShardedStore, v string) []int32 {
	t.Helper()
	var out []int32
	for _, e := range drain(t, s.Postings(v), false) {
		out = append(out, e.pos)
	}
	return out
}

// bruteForcePostings scans the global entries [lo, hi) of s through the
// per-entry accessors: the live entries holding v, in position order.
func bruteForcePostings(s *ShardedStore, lo, hi int32, v string, super bool) []cursorEntry {
	var out []cursorEntry
	for i := lo; i < hi; i++ {
		if s.Value(i) != v || !s.TableAlive(s.TableID(i)) {
			continue
		}
		e := cursorEntry{pos: i, tid: s.TableID(i), cid: s.ColumnID(i), rid: s.RowID(i)}
		if super {
			e.super = s.SuperKey(i)
		}
		out = append(out, e)
	}
	return out
}

// cursorLake holds a value longer than one block ("many", 705 postings
// over 11 tables), one exactly one block long inside one table ("exact",
// 256), short ones, and one ("onlyDead") whose only table is the one the
// tombstoned cases remove.
func cursorLake() []*table.Table {
	var tables []*table.Table
	for ti := 0; ti < 10; ti++ {
		tb := table.New(fmt.Sprintf("L%d", ti), "Team", "Code", "Num")
		for r := 0; r < 70; r++ {
			tb.MustAppendRow("many", fmt.Sprintf("c%d", (r+ti)%7), fmt.Sprint(r*ti))
		}
		tables = append(tables, tb)
	}
	e := table.New("E", "x")
	for r := 0; r < BlockSize; r++ {
		e.MustAppendRow("exact")
	}
	d := table.New("D", "Team", "Tag")
	for r := 0; r < 5; r++ {
		d.MustAppendRow("many", "onlyDead")
	}
	tables = append(tables, e, d)
	for _, tb := range tables {
		tb.InferKinds()
	}
	return tables
}

// TestPostingCursorMatchesBruteForce checks the cursor against a scan over
// the per-entry accessors for every dictionary value and a missing one,
// across shard counts, with and without a tombstone, on a built store and
// on its saved file mapped two ways: loaded whole up front (LoadShards, as
// the stats command does) and decoded lazily on the cursor's first touch.
// Postings are checked against the whole entry range, and ShardPostings of
// every shard against that shard's global range.
func TestPostingCursorMatchesBruteForce(t *testing.T) {
	lake := cursorLake()
	for _, shards := range []int{1, 3, 4} {
		for _, dead := range []bool{false, true} {
			heap := Build(lake, shards)
			if dead {
				var err error
				if heap, err = heap.CloneRemoveTable(heap.TableIDByName("D")); err != nil {
					t.Fatal(err)
				}
			}
			path := saveTemp(t, heap, "cursor.blend")
			loaded, err := MapFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loaded.LoadShards(); err != nil {
				t.Fatal(err)
			}
			mapped, err := MapFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []struct {
				name string
				s    *ShardedStore
			}{{"heap", heap}, {"loadfile", loaded}, {"mapfile", mapped}} {
				t.Run(fmt.Sprintf("shards=%d/dead=%v/%s", shards, dead, src.name), func(t *testing.T) {
					values := map[string]bool{"no-such-value": true}
					for i := int32(0); i < int32(src.s.NumEntries()); i++ {
						values[src.s.Value(i)] = true
					}
					s := src.s
					for v := range values {
						for _, super := range []bool{false, true} {
							got := drain(t, s.Postings(v), super)
							want := bruteForcePostings(s, 0, int32(s.NumEntries()), v, super)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("value %q, super %v: cursor %d entries, brute force %d",
									v, super, len(got), len(want))
							}
							for i := range s.NumShards() {
								got := drain(t, s.ShardPostings(i, v), super)
								want := bruteForcePostings(s, s.base[i], s.base[i+1], v, super)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("shard %d, value %q, super %v: cursor %d entries, brute force %d",
										i, v, super, len(got), len(want))
								}
							}
						}
					}
					if n := len(positions(t, src.s, "many")); n <= BlockSize || (dead && n != 700) {
						t.Fatalf("many: %d postings", n)
					}
					if n := len(positions(t, src.s, "exact")); n != BlockSize {
						t.Fatalf("exact: %d postings, want one full block", n)
					}
					if n := len(positions(t, src.s, "onlyDead")); (n == 0) != dead {
						t.Fatalf("onlyDead: %d postings with dead=%v", n, dead)
					}
				})
			}
			loaded.Close()
			mapped.Close()
		}
	}
}
