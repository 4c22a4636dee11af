package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Segmented v4 persistence. Each shard is written as six independently
// decodable sections, and the file closes with a footer directory of
// section offsets:
//
//	magic "BLND" | version=4 | kind u8 | layout u32 (always 0) | numShards u32
//	per shard: catalog | dict | postings | super | ranges | tombstones
//	refs section (sharded kind only: global table id -> owning shard)
//	footer | footerOff u64 | trailing magic "BLN4"
//
// Every section carries a CRC-32C in the footer. LoadFile reads the whole
// file, checks the footer and every section's CRC, and decodes every shard
// to the heap before it returns; InspectFile reads the footer only.
// Integer-heavy sections are varint-compressed with delta encoding where
// values are correlated: TableIds are non-decreasing within a shard
// (entries are appended per-table), so they store as deltas; XASH super
// keys repeat for every cell of a row, so they store as XORs against the
// previous entry — a single byte per entry for same-row runs instead of 16
// raw bytes. The tombstones section lists a shard's removed tables by local
// id; in memory they are one bitmap over global ids (ShardedStore.dead).
//
// The footer holds, per shard: entry/table/tombstone counts plus
// (offset, length, crc) for each section. The trailing footerOff + "BLN4"
// trailer lets a reader locate the footer from the end of the file.

const (
	persistVersionSegmented = 4

	// Section indices within a shard's footer entry.
	secCatalog     = 0
	secDict        = 1
	secPostings    = 2
	secSuper       = 3
	secRanges      = 4
	secTombstones  = 5
	numSegSections = 6

	segTrailerMagic = "BLN4"
	// header: magic + version u32 + kind u8 + layout u32 + numShards u32
	segHeaderSize = 4 + 4 + 1 + 4 + 4
	// trailer: footerOff u64 + trailing magic
	segTrailerSize = 8 + 4
	// per shard footer entry: entries u64 + tables u32 + dead u32 +
	// numSegSections × (off u64, len u64, crc u32)
	segShardDirSize = 16 + numSegSections*20
	// footer fixed part: numShards u32 + refs (off u64, len u64, crc u32,
	// numTables u32) + footer crc u32
	segFooterFixed = 4 + 24 + 4

	// rawEntryBytes is what one entry costs in a fixed-width array
	// encoding: 4×i32 + 2×u64 + 1×i8. The inspect tooling reports
	// compression ratios against this baseline.
	rawEntryBytes = 33
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segSection locates one CRC-protected byte range inside a v4 file.
type segSection struct {
	off int64
	n   int64
	crc uint32
}

// segWriter tracks the absolute file offset and a running CRC for the
// section being written. Errors are sticky.
type segWriter struct {
	w        *bufio.Writer
	off      int64
	secStart int64
	crc      hash.Hash32
	err      error
	buf      [binary.MaxVarintLen64]byte
}

func newSegWriter(w io.Writer) *segWriter {
	return &segWriter{w: bufio.NewWriter(w), crc: crc32.New(castagnoli)}
}

func (sw *segWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.w.Write(p); err != nil {
		sw.err = err
		return
	}
	sw.crc.Write(p)
	sw.off += int64(len(p))
}

func (sw *segWriter) byte(b byte) {
	sw.buf[0] = b
	sw.write(sw.buf[:1])
}

func (sw *segWriter) uvarint(v uint64) {
	n := binary.PutUvarint(sw.buf[:], v)
	sw.write(sw.buf[:n])
}

func (sw *segWriter) str(s string) {
	sw.uvarint(uint64(len(s)))
	if sw.err != nil {
		return
	}
	if _, err := sw.w.WriteString(s); err != nil {
		sw.err = err
		return
	}
	sw.crc.Write([]byte(s))
	sw.off += int64(len(s))
}

// begin starts a new section at the current offset.
func (sw *segWriter) begin() {
	sw.secStart = sw.off
	sw.crc.Reset()
}

// finish closes the current section, returning its directory entry.
func (sw *segWriter) finish() segSection {
	return segSection{off: sw.secStart, n: sw.off - sw.secStart, crc: sw.crc.Sum32()}
}

// writeShardSections emits the six sections of one shard and returns their
// directory entries. dead lists the shard's tombstoned tables by local id,
// ascending.
func (sh *Store) writeShardSections(sw *segWriter, dead []int32) [numSegSections]segSection {
	var secs [numSegSections]segSection

	// Catalog: table names, row counts, column names and kinds.
	sw.begin()
	sw.uvarint(uint64(len(sh.tables)))
	for _, m := range sh.tables {
		sw.str(m.Name)
		sw.uvarint(uint64(m.NumRows))
		sw.uvarint(uint64(len(m.ColNames)))
		for c := range m.ColNames {
			sw.str(m.ColNames[c])
			sw.byte(byte(m.ColKinds[c]))
		}
	}
	secs[secCatalog] = sw.finish()

	// Dictionary: distinct cell values in id order.
	sw.begin()
	sw.uvarint(uint64(len(sh.dict)))
	for _, v := range sh.dict {
		sw.str(v)
	}
	secs[secDict] = sw.finish()

	// Postings: the four i32 attribute arrays, column-major so each array
	// compresses on its own distribution. TableIds are non-decreasing, so
	// they delta-encode.
	sw.begin()
	n := len(sh.valIdx)
	sw.uvarint(uint64(n))
	for _, v := range sh.valIdx {
		sw.uvarint(uint64(v))
	}
	prev := int32(0)
	for _, v := range sh.tableIDs {
		sw.uvarint(uint64(v - prev))
		prev = v
	}
	for _, v := range sh.columnIDs {
		sw.uvarint(uint64(v))
	}
	for _, v := range sh.rowIDs {
		sw.uvarint(uint64(v))
	}
	secs[secPostings] = sw.finish()

	// Super keys and quadrants. Consecutive entries usually share a row
	// (one entry per cell), so XOR against the previous entry collapses
	// same-row runs to one byte per half.
	sw.begin()
	var prevLo, prevHi uint64
	for i := 0; i < n; i++ {
		sw.uvarint(sh.superLo[i] ^ prevLo)
		sw.uvarint(sh.superHi[i] ^ prevHi)
		prevLo, prevHi = sh.superLo[i], sh.superHi[i]
	}
	for i := 0; i < n; i++ {
		sw.byte(byte(sh.quadrant[i]))
	}
	secs[secSuper] = sw.finish()

	// Table ranges: stored rather than rebuilt from the postings section;
	// the reader checks each against the entry count.
	sw.begin()
	sw.uvarint(uint64(len(sh.tableRange)))
	for _, r := range sh.tableRange {
		sw.uvarint(uint64(r[0]))
		sw.uvarint(uint64(r[1] - r[0]))
	}
	secs[secRanges] = sw.finish()

	// Tombstones: local ids of removed tables, ascending.
	sw.begin()
	sw.uvarint(uint64(len(dead)))
	for _, tid := range dead {
		sw.uvarint(uint64(tid))
	}
	secs[secTombstones] = sw.finish()

	return secs
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v)), uint32(v>>32))
}

// writeSegmented writes a full v4 file: header, per-shard sections, the
// refs section (sharded kind), footer, and trailer. One shard is written
// as the monolithic kind, which carries no refs section; more shards as
// the sharded kind. The header's layout word is always 0 (column). The
// tombstone bitmap is split by shard into local ids.
func (s *ShardedStore) writeSegmented(w io.Writer) error {
	sw := newSegWriter(w)
	kind := byte(persistKindSharded)
	if len(s.shards) == 1 {
		kind = persistKindMonolithic
	}

	var hdr []byte
	hdr = append(hdr, persistMagic...)
	hdr = appendU32(hdr, persistVersionSegmented)
	hdr = append(hdr, kind)
	hdr = appendU32(hdr, 0) // layout word: column
	hdr = appendU32(hdr, uint32(len(s.shards)))
	sw.write(hdr)

	secs := make([][numSegSections]segSection, len(s.shards))
	numDead := make([]int, len(s.shards))
	for i, sh := range s.shards {
		var dead []int32
		for local, g := range s.globalTID[i] {
			if s.dead[g] {
				dead = append(dead, int32(local))
			}
		}
		secs[i] = sh.writeShardSections(sw, dead)
		numDead[i] = len(dead)
	}

	var refsSec segSection
	if kind == persistKindSharded {
		sw.begin()
		sw.uvarint(uint64(len(s.refs)))
		for _, r := range s.refs {
			sw.uvarint(uint64(r.shard))
		}
		refsSec = sw.finish()
	}

	footerOff := sw.off
	footer := make([]byte, 0, segFooterFixed+len(s.shards)*segShardDirSize)
	footer = appendU32(footer, uint32(len(s.shards)))
	for i, sh := range s.shards {
		footer = appendU64(footer, uint64(len(sh.valIdx)))
		footer = appendU32(footer, uint32(len(sh.tables)))
		footer = appendU32(footer, uint32(numDead[i]))
		for _, sec := range secs[i] {
			footer = appendU64(footer, uint64(sec.off))
			footer = appendU64(footer, uint64(sec.n))
			footer = appendU32(footer, sec.crc)
		}
	}
	footer = appendU64(footer, uint64(refsSec.off))
	footer = appendU64(footer, uint64(refsSec.n))
	footer = appendU32(footer, refsSec.crc)
	footer = appendU32(footer, uint32(len(s.refs)))
	footer = appendU32(footer, crc32.Checksum(footer, castagnoli))
	sw.write(footer)

	var trailer []byte
	trailer = appendU64(trailer, uint64(footerOff))
	trailer = append(trailer, segTrailerMagic...)
	sw.write(trailer)

	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// sectionName labels a section index for inspect output and errors.
func sectionName(i int) string {
	switch i {
	case secCatalog:
		return "catalog"
	case secDict:
		return "dict"
	case secPostings:
		return "postings"
	case secSuper:
		return "super"
	case secRanges:
		return "ranges"
	case secTombstones:
		return "tombstones"
	}
	return fmt.Sprintf("section%d", i)
}
