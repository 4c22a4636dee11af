package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"blend/internal/table"
)

// getU32 and getU64 read the fixed-width little-endian fields of the v4
// header, footer and trailer.
func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

func getU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// segDecoder reads varint-encoded values from one section's byte range.
// All reads are bounds-checked: a decoder never panics on truncated or
// hand-crafted input, it returns errors that the caller surfaces as
// bad-index failures.
type segDecoder struct {
	b   []byte
	pos int
}

func (d *segDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// count reads a uvarint that will size an allocation or an int32 id space;
// it must fit comfortably in an int and below 1<<31.
func (d *segDecoder) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= 1<<31 {
		return 0, fmt.Errorf("implausible %s count %d", what, v)
	}
	return int(v), nil
}

func (d *segDecoder) str() (string, error) {
	n, err := d.count("string length")
	if err != nil {
		return "", err
	}
	if d.pos+n > len(d.b) {
		return "", fmt.Errorf("string of %d bytes overruns section", n)
	}
	// string() copies, so decoded values never alias the file's bytes.
	s := string(d.b[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

func (d *segDecoder) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, fmt.Errorf("truncated byte at offset %d", d.pos)
	}
	b := d.b[d.pos]
	d.pos++
	return b, nil
}

func (d *segDecoder) done() error {
	if d.pos != len(d.b) {
		return fmt.Errorf("%d trailing bytes in section", len(d.b)-d.pos)
	}
	return nil
}

// segShard is the footer directory entry for one shard.
type segShard struct {
	entries int
	tables  int
	numDead int
	secs    [numSegSections]segSection
}

// segFile is a parsed v4 file: the whole file's bytes plus the validated
// footer directory and global table directory. decodeShard turns one
// shard body into a heap Store.
type segFile struct {
	data []byte

	kind      byte
	shards    []segShard
	refsSec   segSection
	numTables int
	refs      []shardRef
	globalTID [][]int32
}

// within reports whether the section lies inside [segHeaderSize, end).
// It compares by subtraction: offsets and lengths are read from the file,
// and off+n could overflow.
func (sec segSection) within(end int64) bool {
	return sec.off >= segHeaderSize && sec.n >= 0 && sec.off <= end && sec.n <= end-sec.off
}

// section returns the byte range of a validated section.
func (sf *segFile) section(sec segSection) []byte {
	return sf.data[sec.off : sec.off+sec.n]
}

// checkSection verifies a section's CRC-32C. Structural bounds were
// validated by parseSegFile.
func (sf *segFile) checkSection(shard, idx int) error {
	sec := sf.shards[shard].secs[idx]
	if crc32.Checksum(sf.section(sec), castagnoli) != sec.crc {
		return fmt.Errorf("%s section: checksum mismatch", sectionName(idx))
	}
	return nil
}

// readSegFile reads a whole index file and parses its structure. It is
// the one place an index file is read.
func readSegFile(path string) (*segFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSegFile(data)
}

// parseSegFile validates the structure of a v4 file — header, trailer,
// footer directory, section bounds — and decodes the global table
// directory (refs). It does not touch the shard bodies.
func parseSegFile(data []byte) (*segFile, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	if len(data) < segHeaderSize+segFooterFixed+segTrailerSize {
		return nil, fmt.Errorf("file of %d bytes is too small for a v4 index", len(data))
	}
	kind := data[8]
	sf := &segFile{data: data, kind: kind}
	numShards := int(getU32(data[13:]))
	if numShards == 0 || numShards > MaxShards {
		return nil, fmt.Errorf("implausible shard count %d", numShards)
	}
	if kind == persistKindMonolithic && numShards != 1 {
		return nil, fmt.Errorf("monolithic index claims %d shards", numShards)
	}

	if string(data[len(data)-4:]) != segTrailerMagic {
		return nil, fmt.Errorf("bad trailer magic %q", data[len(data)-4:])
	}
	footerOff := int64(getU64(data[len(data)-segTrailerSize:]))
	footerSize := int64(segFooterFixed + numShards*segShardDirSize)
	if footerOff < segHeaderSize || footerOff+footerSize != int64(len(data)-segTrailerSize) {
		return nil, fmt.Errorf("footer offset %d inconsistent with file size %d", footerOff, len(data))
	}
	footer := data[footerOff : footerOff+footerSize]
	if crc32.Checksum(footer[:len(footer)-4], castagnoli) != getU32(footer[len(footer)-4:]) {
		return nil, fmt.Errorf("footer checksum mismatch")
	}
	if int(getU32(footer)) != numShards {
		return nil, fmt.Errorf("footer shard count %d does not match header %d", getU32(footer), numShards)
	}

	p := 4
	sf.shards = make([]segShard, numShards)
	for i := range sf.shards {
		sh := &sf.shards[i]
		entries := getU64(footer[p:])
		if entries >= 1<<31 {
			return nil, fmt.Errorf("shard %d: implausible entry count %d", i, entries)
		}
		sh.entries = int(entries)
		sh.tables = int(getU32(footer[p+8:]))
		sh.numDead = int(getU32(footer[p+12:]))
		if sh.tables > 1<<30 || sh.numDead > sh.tables {
			return nil, fmt.Errorf("shard %d: implausible table/tombstone counts %d/%d", i, sh.tables, sh.numDead)
		}
		p += 16
		for j := 0; j < numSegSections; j++ {
			sec := segSection{off: int64(getU64(footer[p:])), n: int64(getU64(footer[p+8:])), crc: getU32(footer[p+16:])}
			p += 20
			if !sec.within(footerOff) {
				return nil, fmt.Errorf("shard %d %s section [%d,+%d) outside file body", i, sectionName(j), sec.off, sec.n)
			}
			sh.secs[j] = sec
		}
	}
	sf.refsSec = segSection{off: int64(getU64(footer[p:])), n: int64(getU64(footer[p+8:])), crc: getU32(footer[p+16:])}
	sf.numTables = int(getU32(footer[p+20:]))
	if sf.numTables > 1<<30 {
		return nil, fmt.Errorf("implausible table count %d", sf.numTables)
	}

	if err := sf.decodeRefs(); err != nil {
		return nil, err
	}
	return sf, nil
}

// decodeRefs reads (or, for the monolithic kind, synthesizes) the global
// table directory and checks it against the per-shard table counts.
func (sf *segFile) decodeRefs() error {
	ns := len(sf.shards)
	if sf.kind == persistKindMonolithic {
		if sf.refsSec.n != 0 {
			return fmt.Errorf("monolithic index carries a refs section")
		}
		if sf.numTables != sf.shards[0].tables {
			return fmt.Errorf("table count %d does not match shard catalog %d", sf.numTables, sf.shards[0].tables)
		}
		sf.refs = make([]shardRef, sf.numTables)
		ids := make([]int32, sf.numTables)
		for g := range sf.refs {
			sf.refs[g] = shardRef{shard: 0, local: int32(g)}
			ids[g] = int32(g)
		}
		sf.globalTID = [][]int32{ids}
		return nil
	}
	if !sf.refsSec.within(int64(len(sf.data) - segTrailerSize)) {
		return fmt.Errorf("refs section [%d,+%d) outside file body", sf.refsSec.off, sf.refsSec.n)
	}
	raw := sf.section(sf.refsSec)
	if crc32.Checksum(raw, castagnoli) != sf.refsSec.crc {
		return fmt.Errorf("refs section: checksum mismatch")
	}
	d := &segDecoder{b: raw}
	n, err := d.count("table")
	if err != nil {
		return err
	}
	if n != sf.numTables {
		return fmt.Errorf("refs section holds %d tables, footer says %d", n, sf.numTables)
	}
	sf.refs = make([]shardRef, 0, min(n, 1<<16))
	sf.globalTID = make([][]int32, ns)
	localCount := make([]int32, ns)
	for g := 0; g < n; g++ {
		sh, err := d.uvarint()
		if err != nil {
			return err
		}
		if sh >= uint64(ns) {
			return fmt.Errorf("table %d assigned to shard %d of %d", g, sh, ns)
		}
		sf.refs = append(sf.refs, shardRef{shard: int32(sh), local: localCount[sh]})
		sf.globalTID[sh] = append(sf.globalTID[sh], int32(g))
		localCount[sh]++
	}
	if err := d.done(); err != nil {
		return fmt.Errorf("refs section: %w", err)
	}
	for i := range sf.shards {
		if int(localCount[i]) != sf.shards[i].tables {
			return fmt.Errorf("shard %d holds %d tables, directory says %d", i, sf.shards[i].tables, localCount[i])
		}
	}
	return nil
}

// decodeShard fully decodes one shard into a heap Store, verifying its
// section CRCs and referential integrity, so a corrupt file never yields a
// store that panics later. The shard's tombstones are set in dead, the
// index-wide bitmap, by global id.
func (sf *segFile) decodeShard(i int, dead []bool) (*Store, error) {
	for idx := range numSegSections {
		if err := sf.checkSection(i, idx); err != nil {
			return nil, err
		}
	}
	info := &sf.shards[i]
	s := newStore()

	d := &segDecoder{b: sf.section(info.secs[secCatalog])}
	numTables, err := d.count("table")
	if err != nil {
		return nil, err
	}
	if numTables != info.tables {
		return nil, fmt.Errorf("catalog holds %d tables, footer says %d", numTables, info.tables)
	}
	s.tables = make([]TableMeta, 0, min(numTables, 1<<16))
	for t := 0; t < numTables; t++ {
		var m TableMeta
		if m.Name, err = d.str(); err != nil {
			return nil, err
		}
		nr, err := d.count("row")
		if err != nil {
			return nil, err
		}
		m.NumRows = int32(nr)
		nc, err := d.count("column")
		if err != nil {
			return nil, err
		}
		for c := 0; c < nc; c++ {
			name, err := d.str()
			if err != nil {
				return nil, err
			}
			kb, err := d.byte()
			if err != nil {
				return nil, err
			}
			m.ColNames = append(m.ColNames, name)
			m.ColKinds = append(m.ColKinds, table.Kind(kb))
		}
		s.tables = append(s.tables, m)
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}

	d = &segDecoder{b: sf.section(info.secs[secDict])}
	numValues, err := d.count("dictionary")
	if err != nil {
		return nil, err
	}
	s.dict = make([]string, 0, min(numValues, 1<<16))
	for v := 0; v < numValues; v++ {
		val, err := d.str()
		if err != nil {
			return nil, err
		}
		s.dictBase[val] = int32(len(s.dict))
		s.dict = append(s.dict, val)
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("dict: %w", err)
	}

	d = &segDecoder{b: sf.section(info.secs[secPostings])}
	n, err := d.count("entry")
	if err != nil {
		return nil, err
	}
	if n != info.entries {
		return nil, fmt.Errorf("postings hold %d entries, footer says %d", n, info.entries)
	}
	readI32Col := func(what string) ([]int32, error) {
		out := make([]int32, 0, min(n, 1<<20))
		for k := 0; k < n; k++ {
			v, err := d.count(what)
			if err != nil {
				return nil, err
			}
			out = append(out, int32(v))
		}
		return out, nil
	}
	if s.valIdx, err = readI32Col("value id"); err != nil {
		return nil, err
	}
	s.tableIDs = make([]int32, 0, min(n, 1<<20))
	prev := int32(0)
	for k := 0; k < n; k++ {
		delta, err := d.count("table id delta")
		if err != nil {
			return nil, err
		}
		prev += int32(delta)
		if prev < 0 {
			return nil, fmt.Errorf("entry %d: table id overflows", k)
		}
		s.tableIDs = append(s.tableIDs, prev)
	}
	if s.columnIDs, err = readI32Col("column id"); err != nil {
		return nil, err
	}
	if s.rowIDs, err = readI32Col("row id"); err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("postings: %w", err)
	}

	d = &segDecoder{b: sf.section(info.secs[secSuper])}
	s.superLo = make([]uint64, 0, min(n, 1<<20))
	s.superHi = make([]uint64, 0, min(n, 1<<20))
	var prevLo, prevHi uint64
	for k := 0; k < n; k++ {
		lo, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		hi, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		prevLo ^= lo
		prevHi ^= hi
		s.superLo = append(s.superLo, prevLo)
		s.superHi = append(s.superHi, prevHi)
	}
	s.quadrant = make([]int8, 0, min(n, 1<<20))
	for k := 0; k < n; k++ {
		b, err := d.byte()
		if err != nil {
			return nil, err
		}
		s.quadrant = append(s.quadrant, int8(b))
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("super: %w", err)
	}

	// Referential integrity: a corrupt-but-checksummed file must not
	// produce a store that panics later.
	for k := 0; k < n; k++ {
		if int(s.valIdx[k]) >= len(s.dict) {
			return nil, fmt.Errorf("entry %d references value %d outside dictionary", k, s.valIdx[k])
		}
		tid := s.tableIDs[k]
		if int(tid) >= len(s.tables) {
			return nil, fmt.Errorf("entry %d references table %d outside catalog", k, tid)
		}
		meta := &s.tables[tid]
		if int(s.columnIDs[k]) >= len(meta.ColNames) {
			return nil, fmt.Errorf("entry %d references column %d outside table %q", k, s.columnIDs[k], meta.Name)
		}
		if s.rowIDs[k] >= meta.NumRows {
			return nil, fmt.Errorf("entry %d references row %d outside table %q", k, s.rowIDs[k], meta.Name)
		}
	}

	d = &segDecoder{b: sf.section(info.secs[secRanges])}
	nr, err := d.count("table range")
	if err != nil {
		return nil, err
	}
	if nr != numTables {
		return nil, fmt.Errorf("ranges section holds %d tables, catalog %d", nr, numTables)
	}
	// Table ids are non-decreasing (they are stored as unsigned deltas), so
	// each table's entries are one run and its range is derivable. A stored
	// range must equal that run: one reaching into another table's entries
	// would let reconstruction index rows outside the table.
	s.tableRange = make([][2]int32, 0, min(nr, 1<<16))
	end := 0
	for t := 0; t < nr; t++ {
		start, err := d.count("range start")
		if err != nil {
			return nil, err
		}
		length, err := d.count("range length")
		if err != nil {
			return nil, err
		}
		lo := end
		for end < n && s.tableIDs[end] == int32(t) {
			end++
		}
		if start != lo || length != end-lo {
			return nil, fmt.Errorf("table %d range [%d,+%d) is not its entries [%d,+%d)", t, start, length, lo, end-lo)
		}
		s.tableRange = append(s.tableRange, [2]int32{int32(lo), int32(end)})
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("ranges: %w", err)
	}

	d = &segDecoder{b: sf.section(info.secs[secTombstones])}
	nd, err := d.count("tombstone")
	if err != nil {
		return nil, err
	}
	if nd != info.numDead {
		return nil, fmt.Errorf("tombstone section holds %d ids, footer says %d", nd, info.numDead)
	}
	prevDead := -1
	for k := 0; k < nd; k++ {
		tid, err := d.count("tombstone id")
		if err != nil {
			return nil, err
		}
		if tid >= numTables || tid <= prevDead {
			return nil, fmt.Errorf("tombstone id %d invalid after %d", tid, prevDead)
		}
		dead[sf.globalTID[i][tid]] = true
		prevDead = tid
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("tombstones: %w", err)
	}

	s.rebuildPostings()
	return s, nil
}

// rebuildPostings reconstructs the inverted index from valIdx; postings
// are derivable, so the file does not store them.
func (s *Store) rebuildPostings() {
	s.postings = make([][]int32, len(s.dict))
	counts := make([]int32, len(s.dict))
	for _, vi := range s.valIdx {
		counts[vi]++
	}
	for vi, c := range counts {
		s.postings[vi] = make([]int32, 0, c)
	}
	for i, vi := range s.valIdx {
		s.postings[vi] = append(s.postings[vi], int32(i))
	}
}

// decode checks and decodes every shard of a parsed file in turn. The
// result aliases nothing in sf.data. A monolithic-kind file becomes a
// one-shard store.
//
// The shards decode on the caller's goroutine. Decoding them on parallel
// goroutines was measured on the cold_open benchmark (2 cores, 2 clients):
// latency did not move, and peak RSS rose by 10–20 %, while this loop
// lowered it.
func (sf *segFile) decode() (*ShardedStore, error) {
	s := &ShardedStore{
		shards:    make([]*Store, len(sf.shards)),
		refs:      sf.refs,
		globalTID: sf.globalTID,
		dead:      make([]bool, len(sf.refs)),
	}
	for i := range s.shards {
		var err error
		if s.shards[i], err = sf.decodeShard(i, s.dead); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.numDead += sf.shards[i].numDead
	}
	s.recomputeBase()
	return s, nil
}
