package storage

import (
	"fmt"
	"testing"

	"blend/internal/table"
)

func benchTables(n, rows int) []*table.Table {
	tables := make([]*table.Table, n)
	for t := 0; t < n; t++ {
		tb := table.New(fmt.Sprintf("t%03d", t), "a", "b", "num")
		for r := 0; r < rows; r++ {
			tb.MustAppendRow(
				fmt.Sprintf("alpha%04d", (t*rows+r)%500),
				fmt.Sprintf("beta%04d", (t+r)%300),
				fmt.Sprintf("%d", r*3),
			)
		}
		tb.InferKinds()
		tables[t] = tb
	}
	return tables
}

func BenchmarkBuild(b *testing.B) {
	tables := benchTables(20, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(tables, 1)
	}
}

func BenchmarkValueAccess(b *testing.B) {
	s := Build(benchTables(20, 100), 1)
	n := int32(s.NumEntries())
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(s.Value(int32(i) % n))
	}
	_ = sink
}

func BenchmarkPostingsLookup(b *testing.B) {
	s := Build(benchTables(20, 100), 1)
	values := make([]string, 500)
	for i := range values {
		values[i] = fmt.Sprintf("alpha%04d", i)
	}
	var blk PostingBlock
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		cur := s.Postings(values[i%len(values)])
		for cur.Next(&blk, false) {
			sink += blk.N
		}
	}
	_ = sink
}

func BenchmarkReconstructRow(b *testing.B) {
	s := Build(benchTables(20, 100), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReconstructRow(int32(i%20), int32(i%100))
	}
}
