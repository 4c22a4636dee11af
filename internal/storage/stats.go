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

// ComputeStats scans the index once and returns its summary.
func (s *Store) ComputeStats() Stats {
	st := Stats{
		Shards:         1,
		Tables:         s.NumTables() - s.numDead,
		Tombstones:     s.numDead,
		Entries:        s.NumEntries(),
		DistinctValues: s.NumDistinctValues(),
		EstimatedBytes: s.SizeBytes(),
		ResidentShards: 1,
	}
	for _, v := range s.dict {
		st.DictBytes += int64(len(v))
	}
	totalPost := 0
	for _, p := range s.postings {
		totalPost += len(p)
		if len(p) > st.MaxPostingLength {
			st.MaxPostingLength = len(p)
		}
	}
	if len(s.postings) > 0 {
		st.AvgPostingLength = float64(totalPost) / float64(len(s.postings))
	}
	for _, q := range s.quadrant {
		if q != QuadrantNull {
			st.NumericCells++
		}
	}
	var cols, rows int
	for tid, m := range s.tables {
		if s.dead[tid] {
			continue
		}
		cols += len(m.ColNames)
		rows += int(m.NumRows)
	}
	if st.Tables > 0 {
		st.AvgColumnsPerTbl = float64(cols) / float64(st.Tables)
		st.AvgRowsPerTable = float64(rows) / float64(st.Tables)
	}
	return st
}
