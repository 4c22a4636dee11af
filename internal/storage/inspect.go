package storage

import "blend/internal/berr"

// SectionInfo describes one section of a v4 segment file.
type SectionInfo struct {
	Name  string
	Off   int64
	Bytes int64
	CRC   uint32
}

// ShardSegInfo describes one shard's footer directory entry.
type ShardSegInfo struct {
	Entries    int
	Tables     int
	Tombstones int
	Sections   [numSegSections]SectionInfo
}

// SegmentInfo is the decoded footer directory of a v4 index file, for
// operators (blend index -inspect). RawEntryBytes is what the entries
// would occupy in a fixed-width array encoding, the baseline for the
// compression ratio.
type SegmentInfo struct {
	FileBytes  int64
	Kind       string // "monolithic" or "sharded"
	Tables     int
	Entries    int64
	Tombstones int
	Shards     []ShardSegInfo
	RefsBytes  int64
	FooterOff  int64
}

// EntryBytes sums the postings + super sections — the bytes holding the
// per-entry attribute data — across shards.
func (si *SegmentInfo) EntryBytes() int64 {
	var b int64
	for i := range si.Shards {
		b += si.Shards[i].Sections[secPostings].Bytes + si.Shards[i].Sections[secSuper].Bytes
	}
	return b
}

// RawEntryBytes is the size of the same entries in a fixed-width array
// encoding (33 bytes each).
func (si *SegmentInfo) RawEntryBytes() int64 {
	return si.Entries * rawEntryBytes
}

// InspectFile reads a v4 index file's footer directory without
// materializing any shard. Retired (v1–v3) files report a bad-index error
// naming their version.
func InspectFile(path string) (*SegmentInfo, error) {
	sf, err := readSegFile(path)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.inspect", err)
	}
	info := &SegmentInfo{
		FileBytes: int64(len(sf.data)),
		Kind:      "sharded",
		Tables:    sf.numTables,
		RefsBytes: sf.refsSec.n,
	}
	if sf.kind == persistKindMonolithic {
		info.Kind = "monolithic"
	}
	footerSize := int64(segFooterFixed + len(sf.shards)*segShardDirSize)
	info.FooterOff = int64(len(sf.data)) - segTrailerSize - footerSize
	for i := range sf.shards {
		sh := &sf.shards[i]
		out := ShardSegInfo{Entries: sh.entries, Tables: sh.tables, Tombstones: sh.numDead}
		for j := 0; j < numSegSections; j++ {
			out.Sections[j] = SectionInfo{
				Name:  sectionName(j),
				Off:   sh.secs[j].off,
				Bytes: sh.secs[j].n,
				CRC:   sh.secs[j].crc,
			}
		}
		info.Entries += int64(sh.entries)
		info.Tombstones += sh.numDead
		info.Shards = append(info.Shards, out)
	}
	return info, nil
}
