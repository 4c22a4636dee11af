package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"path/filepath"
	"testing"

	"blend/internal/berr"
	"blend/internal/table"
)

// resealCRCs returns a copy of data with the CRC of every section its
// footer locates, and then the footer's own CRC, recomputed, so that bytes
// mutated inside a section reach the decoders' integrity checks instead of
// failing a checksum. Structure it cannot follow is left as it is.
func resealCRCs(data []byte) []byte {
	b := append([]byte(nil), data...)
	if len(b) < segHeaderSize+segFooterFixed+segTrailerSize {
		return b
	}
	numShards := uint64(getU32(b[13:]))
	footerOff := getU64(b[len(b)-segTrailerSize:])
	if numShards > MaxShards || footerOff < segHeaderSize ||
		footerOff+segFooterFixed+numShards*segShardDirSize != uint64(len(b)-segTrailerSize) {
		return b
	}
	footer := b[footerOff : len(b)-segTrailerSize]
	reseal := func(dir []byte) { // off u64 | len u64 | crc u32
		off, n := getU64(dir), getU64(dir[8:])
		if off <= footerOff && n <= footerOff-off {
			binary.LittleEndian.PutUint32(dir[16:], crc32.Checksum(b[off:off+n], castagnoli))
		}
	}
	p := 4
	for range numShards {
		p += 16
		for range numSegSections {
			reseal(footer[p:])
			p += 20
		}
	}
	reseal(footer[p:]) // refs
	binary.LittleEndian.PutUint32(footer[len(footer)-4:], crc32.Checksum(footer[:len(footer)-4], castagnoli))
	return b
}

// FuzzLoadFile loads mutated index files, seeded from the committed v4
// fixtures (testdata/fuzz/FuzzLoadFile). Every CRC is resealed after the
// mutation, so the damage reaches the decoders. LoadFile must then either
// fail with ErrBadIndex or return a store that every read surface —
// readerProbe, ReconstructTable of every id, Save — reads without a panic.
func FuzzLoadFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.blend")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound work per case
		}
		writeBytes(t, path, resealCRCs(data))
		s, err := LoadFile(path)
		if err != nil {
			if !errors.Is(err, berr.ErrBadIndex) {
				t.Fatalf("LoadFile error = %v, want ErrBadIndex", err)
			}
			return
		}
		readerProbe(t, s, s, "fuzzed")
		for tid := range int32(s.NumTables()) {
			s.ReconstructTable(tid)
		}
		if err := s.Save(io.Discard); err != nil {
			t.Fatalf("Save of a loaded store: %v", err)
		}
	})
}

// TestLoadFileRejectsForeignTableRange saves a two-table store whose ranges
// section gives table 0 the entries of table 1. Every CRC is correct, so
// only the range check can see it: LoadFile must fail with ErrBadIndex
// rather than return a store whose ReconstructTable(0) indexes row 2 of a
// two-row table.
func TestLoadFileRejectsForeignTableRange(t *testing.T) {
	small := table.New("small", "a")
	small.MustAppendRow("x")
	small.MustAppendRow("y")
	big := table.New("big", "a")
	big.MustAppendRow("p")
	big.MustAppendRow("q")
	big.MustAppendRow("r")
	s := Build([]*table.Table{small, big}, 1)
	sh := s.shards[0]
	sh.tableRange[0] = sh.tableRange[1]
	path := saveTemp(t, s, "foreign-range.blend")
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadFile panicked: %v", r)
			}
		}()
		got, err := LoadFile(path)
		if !errors.Is(err, berr.ErrBadIndex) {
			t.Fatalf("LoadFile error = %v, want ErrBadIndex", err)
		}
		if got != nil {
			t.Fatal("LoadFile returned a store with its error")
		}
	}()
}
