package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's runs re-execute os.Executable() for their child phases.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond it", v, err)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples must be refused")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "serve", StartNS: 10, EndNS: 90},
		// Two overlapping children and one reaching past the parent's end.
		{ID: 3, Parent: 2, Name: "a", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 2, Name: "b", StartNS: 40, EndNS: 60},
		{ID: 5, Parent: 2, Name: "c", StartNS: 80, EndNS: 120},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 20, 2: 80 - (40 + 10), 3: 30, 4: 20, 5: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const step, slow = 20 * time.Millisecond, 70 * time.Millisecond
	var events []event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, event{due: time.Duration(i) * step, run: func() (string, error) {
			if i == 1 {
				time.Sleep(slow) // a stall: events 2–4 fall due during it
			}
			return "op", nil
		}})
	}
	samples, late := openLoop(time.Now(), events)
	if len(samples) != 5 || len(late) != 5 {
		t.Fatalf("got %d samples, %d lateness values", len(samples), len(late))
	}
	// Event 2 was due at 40 ms but could only be sent when event 1
	// finished at about 90 ms: its latency counts that wait.
	if got := samples[2].lat; got < slow-step {
		t.Errorf("latency of the event behind the stall = %v, want at least %v: it must run from the due time", got, slow-step)
	}
	if samples[2].start != 2*step {
		t.Errorf("sample start = %v, want the due time %v", samples[2].start, 2*step)
	}
	// The generator itself was never late: waiting for the connection is
	// the system's doing, not the generator's.
	for i, l := range late {
		if l < 0 || l > 15 {
			t.Errorf("generator lateness of event %d = %.2f ms, want about 0", i, l)
		}
	}
}

// streamHash hashes the first ops of every stream a seed generates.
func streamHash(t *testing.T, seed int64) string {
	t.Helper()
	b, err := buildBase(lakeSmoke, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.d.Close()
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		seek, sql := newSeekStream(b, seed, mainStream, c, seekCycle), newSQLStream(b, seed, mainStream, c)
		for i := 0; i < 2*len(seekCycle); i++ {
			fmt.Fprintln(h, seek.next(), sql.next().sql)
		}
	}
	reads, err := genReads(b, seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range reads {
		for _, r := range sub {
			h.Write(r.body)
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, again, other := streamHash(t, 7), streamHash(t, 7), streamHash(t, 8)
	if a != again {
		t.Errorf("seed 7 generated two different op streams: %s, %s", a, again)
	}
	if a == other {
		t.Errorf("seeds 7 and 8 generated the same op stream %s", a)
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(f.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEndDefs))
	}
	for i, m := range f.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || (m.Better == "higher") != d.higherIsBetter {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayerDefs))
	}
	for i, m := range f.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload end to end on the small lake, measured
// and traced, and requires every metric BENCHMARK.json names, with its
// unit, and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	t.Setenv("BENCH_TEST_AS_MAIN", "1")
	f := readBenchmarkFile(t)
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(config{workload: name, seed: 3, seconds: 1, trace: trace, out: out, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", name, trace, metric, got, ok, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, metric, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(out + "/trace_" + name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}
