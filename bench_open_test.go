package blend

// Cold-open benchmarks: how fast an on-disk index becomes queryable.
// OpenIndex reads the file, then checks and decodes every shard.

import (
	"os"
	"sync"
	"testing"

	"blend/internal/datalake"
)

const benchOpenShards = 8

var benchOpen struct {
	once   sync.Once
	v4Path string
	v4Size int64
}

// benchOpenSetup builds one moderately sized lake and persists it once.
func benchOpenSetup(b *testing.B) {
	b.Helper()
	benchOpen.once.Do(func() {
		lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
			Name: "open-bench", NumTables: 64, ColsPerTable: 5, RowsPerTable: 80,
			VocabSize: 6000, Seed: 73,
		})
		d := IndexTables(ColumnStore, lake.Tables, WithShards(benchOpenShards))
		dir, err := os.MkdirTemp("", "blend-open-bench")
		if err != nil {
			panic(err)
		}
		benchOpen.v4Path = dir + "/lake.v4.blend"
		if err := d.SaveIndex(benchOpen.v4Path); err != nil {
			panic(err)
		}
		benchOpen.v4Size = fileSize(benchOpen.v4Path)
	})
	if benchOpen.v4Size == 0 {
		b.Fatal("cold-open fixture file missing")
	}
}
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// BenchmarkOpenIndexCold measures time-to-queryable for a cold open of
// the file. It also reports the file's on-disk size.
func BenchmarkOpenIndexCold(b *testing.B) {
	benchOpenSetup(b)
	b.Run("V4", func(b *testing.B) {
		b.ReportMetric(float64(benchOpen.v4Size), "disk_bytes")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := OpenIndex(benchOpen.v4Path)
			if err != nil {
				b.Fatal(err)
			}
			if d.NumTables() == 0 {
				b.Fatal("empty index")
			}
			d.Close()
		}
	})
}
