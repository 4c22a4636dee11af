package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"blend"
	"blend/internal/datalake"
	"blend/internal/storage"
)

// buildCLI builds the blend binary into a temp dir and returns its path.
func buildCLI(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "blend")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the binary and returns its combined output and exit code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCLI builds the blend binary once and drives it end to end: index,
// inspect, seek, plan, sql, stats, and the structured error line and exit
// status of each failure class (2 for usage errors, 1 for runtime errors).
func TestCLI(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()

	lake := filepath.Join(dir, "lake")
	writeFile(t, filepath.Join(lake, "T1.csv"), "Team,Size\nFinance,31\nMarketing,28\nHR,33\nIT,92\n")
	writeFile(t, filepath.Join(lake, "T2.csv"), "Lead,Year,Team\nTom Riddle,2022,IT\nFirenze,2022,HR\n")
	writeFile(t, filepath.Join(lake, "T3.csv"), "Lead,Year,Team\nRonald Weasley,2024,IT\nFirenze,2024,HR\n")
	plan := filepath.Join(dir, "plan.json")
	writeFile(t, plan, `{"nodes": [
		{"id": "a", "seeker": {"kind": "sc", "values": ["HR", "IT"], "k": 5}},
		{"id": "b", "seeker": {"kind": "kw", "values": ["Firenze"], "k": 5}},
		{"id": "u", "combiner": {"kind": "intersect", "k": 5}, "inputs": ["a", "b"]}
	], "output": "u"}`)
	// A file in the retired v3 format: valid magic, version 3.
	v3 := filepath.Join(dir, "v3.blend")
	writeFile(t, v3, string(binary.LittleEndian.AppendUint32([]byte("BLND"), 3))+strings.Repeat("\x00", 64))

	idx := filepath.Join(dir, "lake.blend")
	sharded := filepath.Join(dir, "sharded.blend")
	cases := []struct {
		name    string
		args    []string
		code    int
		want    []string // substrings of combined stdout+stderr
		wantNot []string
	}{
		{"index", []string{"index", "-lake", lake, "-out", idx}, 0,
			[]string{"indexed 3 tables into 1 shard(s)"}, nil},
		{"index-sharded", []string{"index", "-lake", lake, "-out", sharded, "-shards", "2"}, 0,
			[]string{"indexed 3 tables into 2 shard(s)"}, nil},
		{"inspect", []string{"index", "-out", idx, "-inspect"}, 0,
			[]string{"version 4, monolithic", "tables:   3 (0 tombstoned)"}, []string{"layout"}},
		{"inspect-sharded", []string{"index", "-out", sharded, "-inspect"}, 0,
			[]string{"version 4, sharded", "across 2 shard(s)"}, []string{"layout"}},
		{"seek-sc", []string{"seek", "-index", idx, "-op", "sc", "-values", "HR,IT,Finance", "-k", "2"}, 0,
			[]string{" 1. T1 ", " 2. "}, nil},
		{"seek-mc-sharded", []string{"seek", "-index", sharded, "-op", "mc", "-tuples", "Firenze|HR"}, 0,
			[]string{"T2", "T3"}, []string{"T1"}},
		{"plan-explain", []string{"plan", "-index", idx, "-file", plan, "-explain"}, 0,
			[]string{"node[a]: path=native", "node[b]: path=native", "T2", "T3"}, nil},
		{"plan-explain-sql", []string{"plan", "-index", sharded, "-file", plan, "-explain", "-no-native"}, 0,
			[]string{"node[a]: path=sql", "node[b]: path=sql", "T2", "T3"}, nil},
		{"sql", []string{"sql", "-index", idx, "-query", "SELECT COUNT(*) AS n FROM AllTables WHERE CellValue IN ('HR')"}, 0,
			[]string{"n\n3\n"}, nil},
		{"stats", []string{"stats", "-index", sharded}, 0,
			[]string{"shards:               2", "tables:               3"}, []string{"layout"}},
		{"layout-flag-gone", []string{"index", "-lake", lake, "-out", idx, "-layout", "row"}, 2,
			[]string{"blend: error[bad_request]: cli.index: flag provided but not defined: -layout"}, nil},
		{"retired-v3-index", []string{"seek", "-index", v3, "-op", "sc", "-values", "HR"}, 1,
			[]string{"blend: error[bad_index]:", "index format v3 is no longer supported; rebuild it with `blend index -lake DIR -out FILE`"}, nil},
		{"missing-index", []string{"seek", "-op", "sc", "-values", "HR"}, 2,
			[]string{"blend: error[bad_request]: cli.seek: -index is required"}, nil},
		{"demo", []string{"demo"}, 0, []string{"answer: [T3] (expected [T3])"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLI(t, bin, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\n%s", code, tc.code, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q\n%s", w, out)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(out, w) {
					t.Errorf("output contains %q\n%s", w, out)
				}
			}
		})
	}
}

// TestStatsExact checks `blend stats` on a saved 4-shard index against the
// stats of the built index the file was made from: every shard is decoded,
// so every figure is exact. A corrupt dictionary section must end in the
// structured bad_index error line, not a panic.
func TestStatsExact(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	lake := filepath.Join(dir, "lake")
	if err := os.MkdirAll(lake, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tb := range datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "st", NumTables: 16, ColsPerTable: 3, RowsPerTable: 20, VocabSize: 200, Seed: 5,
	}).Tables {
		if err := tb.WriteCSVFile(filepath.Join(lake, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	idx := filepath.Join(dir, "lake.blend")
	if out, code := runCLI(t, bin, "index", "-lake", lake, "-out", idx, "-shards", "4"); code != 0 {
		t.Fatalf("index: exit %d\n%s", code, out)
	}
	built, err := blend.IndexCSVDir(blend.ColumnStore, lake, blend.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	st := built.Stats()
	if st.Shards != 4 || st.ResidentShards != 4 {
		t.Fatalf("built stats = %+v, want 4 resident shards", st)
	}
	out, code := runCLI(t, bin, "stats", "-index", idx)
	if code != 0 {
		t.Fatalf("stats: exit %d\n%s", code, out)
	}
	for _, want := range []string{
		fmt.Sprintf("shards:               %d\n", st.Shards),
		fmt.Sprintf("tables:               %d (avg %.1f cols × %.1f rows)\n", st.Tables, st.AvgColumnsPerTbl, st.AvgRowsPerTable),
		fmt.Sprintf("index entries:        %d\n", st.Entries),
		fmt.Sprintf("distinct values:      %d (%d dictionary bytes)\n", st.DistinctValues, st.DictBytes),
		fmt.Sprintf("numeric cells:        %d (with quadrant bits)\n", st.NumericCells),
		fmt.Sprintf("posting lists:        avg %.2f, max %d\n", st.AvgPostingLength, st.MaxPostingLength),
		fmt.Sprintf("estimated footprint:  %d bytes\n", st.EstimatedBytes),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q\n%s", want, out)
		}
	}

	// Flip a byte inside shard 0's dictionary section: the footer stays
	// valid, so the damage shows only when the shard is decoded.
	info, err := storage.InspectFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, sec := range info.Shards[0].Sections {
		if sec.Name == "dict" && sec.Bytes > 0 {
			data[sec.Off+sec.Bytes/2] ^= 0xFF
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("shard 0 has no dictionary bytes to corrupt")
	}
	bad := filepath.Join(dir, "bad.blend")
	writeFile(t, bad, string(data))
	out, code = runCLI(t, bin, "stats", "-index", bad)
	if code != 1 || !strings.Contains(out, "blend: error[bad_index]:") || strings.Contains(out, "panic") {
		t.Fatalf("stats on a corrupt dictionary: exit %d, want 1 and one bad_index line\n%s", code, out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
