package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blend/internal/berr"
)

// TestLoadTruncatedNeverPanics injects failure by truncating a valid index
// file at every prefix length: Load must return an error (or, never, a
// silently wrong store) without panicking.
func TestLoadTruncatedNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	orig := Build(lakeFixture(), 1)
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	step := 1
	if len(full) > 2048 {
		step = len(full) / 2048 // cap the loop for big fixtures
	}
	for n := 0; n < len(full); n += step {
		func(n int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := Load(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("Load accepted a %d-byte truncation of a %d-byte file", n, len(full))
			}
		}(n)
	}
	// The untruncated file still loads.
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full file failed to load: %v", err)
	}
}

// TestLoadBitFlips flips single bytes across the header region; Load must
// never panic (it may succeed when the flip lands in benign payload bytes,
// e.g. inside a value string).
func TestLoadBitFlips(t *testing.T) {
	var buf bytes.Buffer
	orig := Build(lakeFixture(), 1)
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	limit := len(full)
	if limit > 512 {
		limit = 512
	}
	for i := 0; i < limit; i++ {
		mutated := append([]byte(nil), full...)
		mutated[i] ^= 0xFF
		func(i int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked with byte %d flipped: %v", i, r)
				}
			}()
			_, _ = Load(bytes.NewReader(mutated))
		}(i)
	}
}

// writeBytes dumps raw index bytes to a file for the path-based loaders.
func writeBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMapFileTruncatedNeverPanics truncates a valid v4 file at every
// (stepped) prefix length: MapFile must return an error without
// panicking — the footer directory lives at the end of the file, so no
// truncation can look complete.
func TestMapFileTruncatedNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	orig := Build(widerLake(), 4)
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	path := filepath.Join(t.TempDir(), "trunc.blend")
	step := 1
	if len(full) > 1024 {
		step = len(full) / 1024
	}
	for n := 0; n < len(full); n += step {
		writeBytes(t, path, full[:n])
		func(n int) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("MapFile panicked on %d-byte prefix: %v", n, r)
				}
			}()
			idx, err := MapFile(path)
			if err == nil {
				t.Fatalf("MapFile accepted a %d-byte truncation of a %d-byte file", n, len(full))
			}
			if idx != nil {
				t.Fatalf("MapFile returned both an index and an error at prefix %d", n)
			}
		}(n)
	}
	writeBytes(t, path, full)
	idx, err := MapFile(path)
	if err != nil {
		t.Fatalf("full file failed to map: %v", err)
	}
	idx.Close()
}

// TestMapFileBadFooter corrupts the structures MapFile validates eagerly —
// trailer magic, footer offset, footer CRC — and checks each is rejected
// with the typed bad-index code.
func TestMapFileBadFooter(t *testing.T) {
	var buf bytes.Buffer
	orig := Build(widerLake(), 4)
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	path := filepath.Join(t.TempDir(), "bad.blend")
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"trailer-magic", func(b []byte) { b[len(b)-1] ^= 0xFF }},
		{"footer-offset-huge", func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-12:], uint64(len(b))*2)
		}},
		{"footer-offset-zero", func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-12:], 0)
		}},
		{"footer-crc", func(b []byte) {
			// A byte inside the footer directory, which the footer CRC covers.
			footerOff := binary.LittleEndian.Uint64(b[len(b)-12:])
			b[footerOff+8] ^= 0xFF
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := append([]byte(nil), full...)
			tc.mutate(mutated)
			writeBytes(t, path, mutated)
			_, err := MapFile(path)
			if err == nil {
				t.Fatal("MapFile accepted the corrupted file")
			}
			if berr.CodeOf(err) != berr.CodeBadIndex {
				t.Fatalf("error code = %v, want CodeBadIndex (%v)", berr.CodeOf(err), err)
			}
		})
	}
}

// corruptShard0 saves a 4-shard index, flips a byte inside shard 0's dict
// section body, and returns the corrupted bytes plus the directory holding
// them. The footer stays valid, so MapFile accepts the file and the damage
// shows only when shard 0 is first touched.
func corruptShard0(t *testing.T) (data []byte, dir string) {
	t.Helper()
	orig := Build(widerLake(), 4)
	dir = t.TempDir()
	clean := filepath.Join(dir, "clean.blend")
	if err := orig.SaveFile(clean); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	dict := info.Shards[0].Sections[secDict]
	if dict.Bytes == 0 {
		t.Fatal("shard 0 has an empty dict section")
	}
	data, err = os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	data[dict.Off+dict.Bytes/2] ^= 0xFF
	return data, dir
}

// TestMappedCorruptSectionPanicsTyped flips a byte inside a shard's body
// section. The footer stays valid, so MapFile succeeds; eager Load of the
// same bytes must return an error (it checks section CRCs up front), and
// the mapped store must panic with a typed bad-index error on first touch
// of the poisoned shard — the read accessors have no error returns, and a
// CRC mismatch after open means the file changed underneath the mapping.
func TestMappedCorruptSectionPanicsTyped(t *testing.T) {
	data, dir := corruptShard0(t)

	// Eager load checks every section CRC before returning.
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("eager Load accepted a corrupt dict section")
	}

	bad := filepath.Join(dir, "bad.blend")
	writeBytes(t, bad, data)
	idx, err := MapFile(bad)
	if err != nil {
		t.Fatalf("MapFile rejected a file with a valid footer: %v", err)
	}
	defer idx.Close()
	touch := func() (r any) {
		defer func() { r = recover() }()
		idx.Value(0) // global entry 0 lives in shard 0
		return nil
	}
	for i := 0; i < 2; i++ { // the panic must repeat, not vanish after once.Do
		r := touch()
		if r == nil {
			t.Fatalf("touch %d of corrupt shard did not panic", i)
		}
		err, ok := r.(error)
		if !ok || berr.CodeOf(err) != berr.CodeBadIndex {
			t.Fatalf("touch %d panicked with %v, want typed CodeBadIndex error", i, r)
		}
	}
}

// TestMappedCorruptSectionSaveFails saves a mapped index whose shard 0 is
// corrupt. Save has an error return, so it must report the typed
// bad-index error rather than panic, and SaveFile must leave neither the
// target nor its temp file behind.
func TestMappedCorruptSectionSaveFails(t *testing.T) {
	data, dir := corruptShard0(t)
	bad := filepath.Join(dir, "bad.blend")
	writeBytes(t, bad, data)
	idx, err := MapFile(bad)
	if err != nil {
		t.Fatalf("MapFile rejected a file with a valid footer: %v", err)
	}
	defer idx.Close()

	out := filepath.Join(dir, "out.blend")
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("SaveFile panicked: %v", r)
			}
		}()
		err = idx.SaveFile(out)
	}()
	if !errors.Is(err, berr.ErrBadIndex) {
		t.Fatalf("SaveFile error = %v, want ErrBadIndex", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed SaveFile left %s behind (stat: %v)", out, err)
	}
	if left, _ := filepath.Glob(out + ".tmp*"); len(left) != 0 {
		t.Fatalf("failed SaveFile left temp files %v", left)
	}
}

// TestRetiredFormatsRejected feeds every loader hand-built headers of
// retired or unknown formats: v1–v3 files, a v4 file written with the row
// layout, and an unknown version. Each must fail with a typed bad-index
// error — naming the retired format and how to rebuild, where there is one
// — and never panic.
func TestRetiredFormatsRejected(t *testing.T) {
	header := func(version uint32, rest ...byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte(persistMagic), version)
		b = append(b, rest...)
		return append(b, make([]byte, 64)...) // body bytes a loader might misparse
	}
	v4Header := func(kind byte, layout uint32) []byte {
		rest := binary.LittleEndian.AppendUint32([]byte{kind}, layout)
		return header(persistVersionSegmented, binary.LittleEndian.AppendUint32(rest, 1)...)
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error message
	}{
		{"v1", header(1), "index format v1 is no longer supported; rebuild it"},
		{"v2", header(2), "index format v2 is no longer supported; rebuild it"},
		{"v3", header(3, persistKindSharded), "index format v3 is no longer supported; rebuild it"},
		{"v4-row-layout", v4Header(persistKindMonolithic, 1), "layout 1 is no longer supported"},
		{"unknown-version", header(9), "unsupported index version 9"},
	}
	dir := t.TempDir()
	loaders := []struct {
		name string
		open func(path string) (any, error)
	}{
		{"Load", func(path string) (any, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return Load(bytes.NewReader(data))
		}},
		{"LoadFile", func(path string) (any, error) { return LoadFile(path) }},
		{"MapFile", func(path string) (any, error) { return MapFile(path) }},
		{"InspectFile", func(path string) (any, error) { return InspectFile(path) }},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".blend")
		writeBytes(t, path, tc.data)
		for _, l := range loaders {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				_, err := l.open(path)
				if !errors.Is(err, berr.ErrBadIndex) {
					t.Fatalf("err = %v, want a bad-index error", err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %q, want it to mention %q", err, tc.want)
				}
			})
		}
	}
}
