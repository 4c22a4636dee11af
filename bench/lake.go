package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"blend"
	"blend/internal/datalake"
	"blend/internal/table"
	"blend/internal/xash"
)

// lakeSize shapes the generated lake. See README.md ("Sizing") for why
// lakeM is the size of record.
type lakeSize struct{ tables, cols, rows, vocab int }

var (
	lakeM     = lakeSize{tables: 300, cols: 5, rows: 200, vocab: 8000}
	lakeSmoke = lakeSize{tables: 200, cols: 5, rows: 50, vocab: 2000}
)

const shards = 4

// base is what the shared part of set-up leaves behind: the generated lake
// (kept for query generation and oracles), the built index and its file.
type base struct {
	lake      *datalake.JoinLake
	d         *blend.Discovery
	indexPath string
	// userBytes is the lake rendered as CSV; diskBytes the saved v4 file.
	userBytes, diskBytes int64
	// memBytes is the engine's own estimate of the resident index.
	memBytes         int64
	gen, build, save time.Duration
}

// buildBase runs the offline phase every workload starts from: generate the
// lake from the seed, index it, persist it.
func buildBase(size lakeSize, seed int64, dir string) (*base, error) {
	b := &base{indexPath: filepath.Join(dir, "lake.blend")}
	t := time.Now()
	b.lake = datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "b", NumTables: size.tables, ColsPerTable: size.cols,
		RowsPerTable: size.rows, VocabSize: size.vocab, Seed: seed,
	})
	b.gen = time.Since(t)
	t = time.Now()
	b.d = blend.IndexTables(blend.ColumnStore, b.lake.Tables, blend.WithShards(shards))
	b.build = time.Since(t)
	t = time.Now()
	if err := b.d.SaveIndex(b.indexPath); err != nil {
		return nil, err
	}
	b.save = time.Since(t)
	st, err := os.Stat(b.indexPath)
	if err != nil {
		return nil, fmt.Errorf("stat index: %w", err)
	}
	b.diskBytes = st.Size()
	return b, nil
}

// cells is the number of AllTables tuples the lake indexes.
func (b *base) cells() int {
	c := b.lake.Config
	return c.NumTables * c.ColsPerTable * c.RowsPerTable
}

// csvBytes is the size of a table rendered as CSV. Generated cells never
// need quoting, so the size is the cell lengths plus separators.
func csvBytes(t *table.Table) int64 {
	var n int64
	for _, c := range t.Columns {
		n += int64(len(c.Name)) + 1
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			n += int64(len(cell)) + 1
		}
	}
	return n
}

// qgen draws query inputs from the lake's real content, so that every
// query has answers, from its own random stream: op i of a client depends
// only on the seed, the stream, the client and i.
type qgen struct {
	lake *datalake.JoinLake
	rng  *rand.Rand
	// skip holds values the generator leaves out of its inputs (nil: none).
	skip map[string]bool
}

func newQgen(lake *datalake.JoinLake, seed int64, stream, client int) *qgen {
	return &qgen{lake: lake, rng: rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + int64(client)*104729 + 17))}
}

func (g *qgen) table() *table.Table { return g.lake.Tables[g.rng.Intn(len(g.lake.Tables))] }

// stringCol picks a non-numeric column: the generator makes the last
// column numeric.
func (g *qgen) stringCol(t *table.Table) int { return g.rng.Intn(t.NumCols() - 1) }

// column draws up to size distinct values of one lake column, padded from
// the vocabulary when the column is smaller.
func (g *qgen) column(size int) []string {
	t := g.table()
	all := t.DistinctColumnValues(g.stringCol(t))
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	vals := make([]string, 0, size)
	seen := make(map[string]bool, size)
	for _, v := range all {
		if len(vals) < size && !g.skip[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	for len(vals) < size {
		if v := g.lake.Vocab[g.rng.Intn(len(g.lake.Vocab))]; !seen[v] && !g.skip[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	return vals
}

// tuples draws up to n rows of the first width columns of one table.
func (g *qgen) tuples(n, width int) [][]string {
	t := g.table()
	out := make([][]string, 0, n)
rows:
	for _, r := range g.rng.Perm(t.NumRows()) {
		if len(out) == n {
			break
		}
		for _, v := range t.Rows[r][:width] {
			if g.skip[v] {
				continue rows
			}
		}
		out = append(out, append([]string(nil), t.Rows[r][:width]...))
	}
	return out
}

// corr draws n (key, target) pairs from one table: keys from a string
// column, targets from the numeric column of the same rows, so that at
// least that table correlates with the query.
func (g *qgen) corr(n int) (keys []string, targets []float64) {
	t := g.table()
	kc := g.stringCol(t)
	nums, rows := t.NumericColumnValues(t.NumCols() - 1)
	seen := make(map[string]bool, n)
	for i, r := range rows {
		k := t.Cell(r, kc)
		if seen[k] || len(keys) == n {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		targets = append(targets, nums[i])
	}
	return keys, targets
}

// probeXash times the row super-key function on the lake's first table:
// the per-row cost index build pays once and the MC seeker per query row.
func probeXash(b *base, m metrics) {
	rows := b.lake.Tables[0].Rows
	var sink xash.Key
	t := time.Now()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for _, row := range rows {
			sink = xash.HashRow(row)
		}
	}
	_ = sink
	m["xash.hash_ns_per_row"] = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(rows))
}
