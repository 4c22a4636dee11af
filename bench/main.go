// Command bench is the repository's end-to-end benchmark: see README.md
// and ../BENCHMARK.json, which names every metric this program prints.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// clients is the number of load goroutines / connections: the box the
	// bounds were set on has 2 cores, and load beyond nproc measures the
	// scheduler, not the program.
	clients = 2
	// Op streams: a window replays the stream it is given from its first
	// op, so the ops of the measured window depend on the seed alone, not
	// on how far the warm-up got. Probes and oracles have their own.
	warmStream, mainStream, probeStream = 0, 1, 99

	warmup = 2 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	smoke    bool
	phase    string
	update   string
}

func (c config) size() lakeSize {
	if c.smoke {
		return lakeSmoke
	}
	return lakeM
}

// workload is one traffic mix. Implementations live in seek.go, sql.go,
// serve.go and cold.go.
type workload interface {
	// open finishes set-up on top of the shared base, in dir; its time is
	// part of setup_s.
	open(b *base, dir string) error
	// verify checks a fixed sample of the op stream against oracles and
	// returns how many answers it checked, what was wrong, and a checksum
	// of the answers for the committed expectations.
	verify() (checked int, failures []string, sum string)
	// window drives the workload's load for dur, drawing its ops from the
	// given stream; a nil tracer is off.
	window(dur time.Duration, stream int, tr *tracer) (*observed, error)
	// layers fills the workload's own per-layer metrics from the traced
	// window, the untraced one before it, and its probes.
	layers(tr *tracer, plain, traced *observed, m metrics) error
	// audit runs the checks that need the whole run (durability) and
	// returns how many it made and what was wrong.
	audit() (checked int, failures []string)
	// bytes is what the run stores on disk and what users handed it.
	bytes() (stored, user int64)
	base() *base
	close() error
}

// common is the state and the defaults every workload shares.
type common struct {
	cfg config
	b   *base
}

func (c *common) base() *base { return c.b }

func (c *common) bytes() (stored, user int64) { return c.b.diskBytes, c.b.userBytes }

func (c *common) audit() (int, []string) { return 0, nil }

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "seek_native":
		return &seekNative{common: common{cfg: cfg}}, nil
	case "sql_adhoc":
		return &sqlAdhoc{common: common{cfg: cfg}}, nil
	case "serve_mixed":
		return &serveMixed{common: common{cfg: cfg}}, nil
	case "cold_open":
		return &coldOpen{common: common{cfg: cfg}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"seek_native", "sql_adhoc", "serve_mixed", "cold_open"}

// metrics maps a metric name of BENCHMARK.json to its measured value.
type metrics map[string]float64

// pct stores a percentile of xs under a per-layer name. Too few samples
// and the harness refuses the number: the metric stays unset (and prints
// as 0) with a note on standard error, rather than failing the run over a
// diagnostic.
func (m metrics) pct(name string, xs []float64, p float64) bool {
	v, err := percentile(xs, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s not reported: %v\n", name, err)
		return false
	}
	m[name] = v
	return true
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	var aa bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (empty: all four, measured then traced, as a report)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the lake and of every op stream")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: measured run printing end-to-end metrics; 1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for index files, logs and traces")
	flag.BoolVar(&cfg.smoke, "smoke", false, "small lake, for the harness's own test")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on this code and compare the two against the bounds")
	flag.StringVar(&cfg.update, "update", "", "with -seed 1: rewrite the expected answer checksums in this file")
	flag.StringVar(&cfg.phase, "phase", "", "internal: run one phase in a child process")
	flag.Parse()
	cfg.trace = trace != 0
	if err := dispatch(cfg, aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(cfg config, aa bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	switch {
	case cfg.phase != "":
		return runPhase(cfg)
	case aa:
		return runAA(cfg)
	case cfg.workload == "":
		_, err := runReport(cfg, os.Stdout, false)
		return err
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// phaseOutput is what a child process reports to its parent.
type phaseOutput struct {
	SetupS   float64  `json:"setup_s"`
	ReplayS  float64  `json:"replay_s"`
	Checked  int      `json:"checked"`
	Failures []string `json:"failures"`
	Sum      string   `json:"sum"`
}

// runPhase is the child side. Set-up repeats and oracle checks run in
// their own processes so that the measuring process's peak RSS and heap
// state are those of one set-up and the workload, nothing else.
func runPhase(cfg config) error {
	var out phaseOutput
	switch cfg.phase {
	case "setup", "verify":
		dir, err := os.MkdirTemp(cfg.out, cfg.workload+"-"+cfg.phase+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		w, setup, err := setUp(cfg, dir)
		if err != nil {
			return err
		}
		out.SetupS = setup.Seconds()
		if cfg.phase == "verify" {
			out.Checked, out.Failures, out.Sum = w.verify()
		}
		if err := w.close(); err != nil {
			return err
		}
	case "durability":
		checked, failures, replay, err := checkDurability(cfg.out)
		if err != nil {
			return err
		}
		out.Checked, out.Failures, out.ReplayS = checked, failures, replay.Seconds()
	default:
		return fmt.Errorf("unknown phase %q", cfg.phase)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// reexec runs this binary again with the given arguments, waits for it,
// and decodes the last line of its standard output into out.
func reexec(cfg config, out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args = append(args, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s %v: %w", cfg.workload, args, err)
	}
	if err := json.Unmarshal(lastLine(stdout), out); err != nil {
		return fmt.Errorf("%s %v: decode output: %w", cfg.workload, args, err)
	}
	return nil
}

// child runs one phase in a process of its own, working under dir.
func child(cfg config, phase, dir string) (*phaseOutput, error) {
	var po phaseOutput
	if err := reexec(cfg, &po, "-phase", phase, "-out", dir); err != nil {
		return nil, err
	}
	return &po, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// setUp is everything between process start and warm-up: the shared
// offline phase plus the workload's own opening moves.
func setUp(cfg config, dir string) (workload, time.Duration, error) {
	t := time.Now()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, 0, err
	}
	b, err := buildBase(cfg.size(), cfg.seed, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := w.open(b, dir); err != nil {
		return nil, 0, err
	}
	setup := time.Since(t)
	// Outside the timing: this is the harness sizing its own inputs.
	for _, tb := range b.lake.Tables {
		b.userBytes += csvBytes(tb)
	}
	b.memBytes = b.d.IndexSizeBytes()
	return w, setup, nil
}

//go:embed testdata/expected_seed1.json
var expectedSeed1 []byte

// checkExpected compares the verify phase's answer checksum with the one
// committed for seed 1 (or, with -update, commits it); other seeds and the
// smoke lake rely on the oracles alone.
func checkExpected(cfg config, sum string) (checked int, failures []string, err error) {
	if cfg.seed != 1 || cfg.smoke {
		return 0, nil, nil
	}
	want := map[string]string{}
	if err := json.Unmarshal(expectedSeed1, &want); err != nil {
		return 0, nil, fmt.Errorf("expected_seed1.json: %w", err)
	}
	if cfg.update != "" {
		if b, err := os.ReadFile(cfg.update); err == nil {
			if err := json.Unmarshal(b, &want); err != nil {
				return 0, nil, fmt.Errorf("%s: %w", cfg.update, err)
			}
		}
		want[cfg.workload] = sum
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return 0, nil, err
		}
		return 0, nil, os.WriteFile(cfg.update, append(b, '\n'), 0o644)
	}
	if want[cfg.workload] != sum {
		failures = []string{fmt.Sprintf("answers of the verify sample hash to %s, expected_seed1.json has %q", sum, want[cfg.workload])}
	}
	return 1, failures, nil
}

// run accumulates what one invocation checked and measured.
type run struct {
	cfg      config
	m        metrics
	checked  int
	failures []string
	windows  []*observed
}

func (r *run) note(checked int, failures []string) {
	r.checked += checked
	r.failures = append(r.failures, failures...)
}

// runWorkload is one run as the driver sees it: set up, verify, warm up,
// measure, and report either the end-to-end or the per-layer metrics.
func runWorkload(cfg config) (*result, error) {
	dir, err := os.MkdirTemp(cfg.out, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, m: metrics{}}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
		err = r.traced(dir)
	} else {
		err = r.measured(dir)
	}
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: r.checked, Failed: len(r.failures), Metrics: map[string]metricValue{}}
	for _, obs := range r.windows {
		n, first := obs.failed()
		res.Attempted += obs.attempted()
		res.Failed += n
		if first != nil {
			r.failures = append(r.failures, first.Error())
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "bench: wrong:", f)
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		// A layer the workload bypasses did no work: it reports 0.
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// start sets the workload up in this process and warms it up.
func (r *run) start(dir string) (workload, time.Duration, error) {
	w, setup, err := setUp(r.cfg, dir)
	if err != nil {
		return nil, 0, err
	}
	warm := warmup
	if r.cfg.smoke {
		warm /= 10
	}
	if _, err := w.window(warm, warmStream, nil); err != nil {
		return nil, 0, err
	}
	return w, setup, nil
}

// measured is a --trace 0 run. Set-up happens three times, twice in child
// processes (one of which goes on to verify), and setup_s is the median.
func (r *run) measured(dir string) error {
	verify, err := child(r.cfg, "verify", r.cfg.out)
	if err != nil {
		return err
	}
	r.note(verify.Checked, verify.Failures)
	n, bad, err := checkExpected(r.cfg, verify.Sum)
	if err != nil {
		return err
	}
	r.note(n, bad)
	again, err := child(r.cfg, "setup", r.cfg.out)
	if err != nil {
		return err
	}
	w, setup, err := r.start(dir)
	if err != nil {
		return err
	}
	r.m["setup_s"] = median([]float64{verify.SetupS, again.SetupS, setup.Seconds()})

	obs, err := w.window(time.Duration(r.cfg.seconds*float64(time.Second)), mainStream, nil)
	if err != nil {
		return err
	}
	r.windows = []*observed{obs}
	if err := endToEnd(w, obs, r.m); err != nil {
		return err
	}
	r.note(w.audit())
	return w.close()
}

// traced is a --trace 1 run: the same ops twice, untraced then traced (the
// gap between the two rates is what tracing costs), then the layer probes.
func (r *run) traced(dir string) error {
	w, _, err := r.start(dir)
	if err != nil {
		return err
	}
	half := time.Duration(r.cfg.seconds * float64(time.Second) / 2)
	plain, err := w.window(half, mainStream, nil)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr := newTracer()
	traced, err := w.window(half, mainStream, tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.windows = []*observed{plain, traced}
	r.note(w.audit())
	if err := perLayer(w, tr, plain, traced, &ms0, &ms1, r.m); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(r.cfg.out, "trace_"+r.cfg.workload+".json")); err != nil {
		return err
	}
	return w.close()
}

// endToEnd derives the metrics a user of the system would see from one
// untraced window.
func endToEnd(w workload, obs *observed, m metrics) error {
	var lat []float64
	for _, s := range obs.reads {
		if s.err == nil {
			lat = append(lat, ms(s.lat))
		}
	}
	if len(lat) == 0 {
		return errors.New("no read op succeeded")
	}
	m["ops_per_s"] = float64(len(lat)) / obs.elapsed.Seconds()
	m["cpu_s_per_kop"] = obs.cpu.Seconds() / (float64(len(lat)) / 1000)
	for name, p := range map[string]float64{"latency_p50_ms": 0.5, "latency_p95_ms": 0.95} {
		v, err := percentile(lat, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = v
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = rss
	stored, user := w.bytes()
	m["stored_bytes_per_user_byte"] = float64(stored) / float64(user)
	return nil
}

// perLayer fills what every workload reports from a traced run, then the
// workload's own layers.
func perLayer(w workload, tr *tracer, plain, traced *observed, ms0, ms1 *runtime.MemStats, m metrics) error {
	rate := func(o *observed) float64 { return float64(len(o.reads)) / o.elapsed.Seconds() }
	m["trace.overhead_share"] = 1 - rate(traced)/rate(plain)
	ops := float64(traced.attempted())
	m["blend.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["blend.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m["blend.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	var worst time.Duration
	for _, s := range traced.reads {
		worst = max(worst, s.lat)
	}
	m["client.latency_max_ms"] = ms(worst)
	b := w.base()
	m["datalake.gen_s"] = b.gen.Seconds()
	m["blend.index_build_cells_per_s"] = float64(b.cells()) / b.build.Seconds()
	m["storage.save_ms"] = ms(b.save)
	m["storage.disk_bytes"] = float64(b.diskBytes)
	m["storage.estimated_mem_bytes"] = float64(b.memBytes)
	probeXash(b, m)
	return w.layers(tr, plain, traced, m)
}

// sortedKeys is for deterministic report order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
