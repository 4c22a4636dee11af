package storage

// Stats summarizes an index for operators and the CLI's stats subcommand:
// the shape of the lake, dictionary compression, posting-list skew (the
// quantity seeker runtimes scale with), and quadrant coverage.
type Stats struct {
	Shards           int // partitions backing the index (1 when monolithic)
	Tables           int // live tables (tombstoned ones excluded)
	Tombstones       int // removed-but-not-compacted tables still holding space
	Entries          int
	DistinctValues   int
	NumericCells     int // cells carrying a quadrant bit
	AvgPostingLength float64
	MaxPostingLength int
	DictBytes        int64
	EstimatedBytes   int64 // heap footprint of the whole index
	AvgColumnsPerTbl float64
	AvgRowsPerTable  float64

	// Every shard is on the heap from the moment an index is built or
	// opened: ResidentShards always equals Shards and MappedBytes is
	// always 0. Both remain for readers that report them.
	ResidentShards int
	MappedBytes    int64
}
