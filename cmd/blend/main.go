// Command blend is the BLEND command-line interface: it indexes a CSV data
// lake into the unified AllTables index, runs individual seekers against
// it, executes raw SQL on the index relation, and demonstrates the paper's
// running example.
//
// Usage:
//
//	blend index -lake DIR -out FILE [-shards N]
//	blend index -lake DIR -out FILE -append [-timeout D]
//	blend seek  -index FILE -op sc|kw -values v1,v2,… [-k 10]
//	blend seek  -index FILE -op mc -tuples "a|b,c|d" [-k 10]
//	blend sql   -index FILE -query "SELECT … FROM AllTables …"
//	blend index -out FILE -inspect
//	blend demo
//
// A -lake DIR is read recursively: every *.csv under it, subdirectories
// included, becomes a table, in sorted path order.
//
// Failures print one structured line — blend: error[<code>]: <detail> —
// and exit non-zero: 2 for usage errors (bad subcommand, bad flags,
// missing required flags, a -lake that cannot be read or holds no CSV
// file), 1 for runtime errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blend"
	"blend/internal/berr"
	"blend/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = cmdIndex(os.Args[2:])
	case "seek":
		err = cmdSeek(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "demo":
		err = cmdDemo()
	case "-h", "--help", "help":
		usage()
	default:
		fail(berr.New(berr.CodeBadRequest, "cli", "unknown command %q", os.Args[1]))
	}
	if err != nil {
		fail(err)
	}
}

// fail prints one structured error line and exits: usage-class errors
// (bad flags, bad requests) exit 2, runtime errors exit 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "blend: error[%s]: %s\n", blend.ErrorCodeOf(err), errDetail(err))
	if errors.Is(err, blend.ErrBadRequest) {
		usage()
		os.Exit(2)
	}
	os.Exit(1)
}

// errDetail strips the code prefix a typed error already renders, so the
// structured line shows each fact once.
func errDetail(err error) string {
	var te *blend.Error
	if errors.As(err, &te) {
		msg := te.Error()
		return strings.TrimPrefix(msg, te.Code.String()+": ")
	}
	return err.Error()
}

// parseFlags parses a subcommand flag set, converting flag errors into
// typed bad-request errors so main can exit with a structured message and
// status 2 instead of flag's mixed usage output.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(&strings.Builder{}) // suppress flag's own usage dump
	if err := fs.Parse(args); err != nil {
		return berr.New(berr.CodeBadRequest, "cli."+fs.Name(), "%v", err)
	}
	if fs.NArg() > 0 {
		return berr.New(berr.CodeBadRequest, "cli."+fs.Name(), "unexpected arguments %q", fs.Args())
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  blend index -lake DIR -out FILE [-shards N]            build the unified index (DIR read recursively)
  blend index -lake DIR -out FILE -append [-timeout D]   bulk-append DIR to an existing index
  blend index -out FILE -inspect                         print a v4 index's segment directory
  blend seek  -index FILE -op sc|kw -values v1,v2,...    single-column / keyword search
  blend seek  -index FILE -op mc -tuples "a|b,c|d"       multi-column join search
  blend sql   -index FILE -query "SELECT ..."            raw SQL on AllTables
  blend plan  -index FILE -file plan.json [-no-opt] [-timeout D] [-explain] [-profile] [-no-native] [-as-of G]
                                                         run a JSON discovery plan (GOMAXPROCS-wide)
  blend stats -index FILE                                index statistics
  blend demo                                             run the paper's Example 1
Every command that reads an index decodes and checks all of it first.`)
}

// indexOptions maps the -no-native flag to the engine option OpenIndex
// applies: the SQL interpreter serves every seeker (for A/B runs against
// path=native output).
func indexOptions(noNative bool) []blend.IndexOption {
	if noNative {
		return []blend.IndexOption{blend.WithoutNativeExec()}
	}
	return nil
}

// queryContext derives the context for one CLI query: Background, bounded
// by -timeout when positive.
func queryContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	index := fs.String("index", "", "index file built by `blend index`")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *index == "" {
		return berr.New(berr.CodeBadRequest, "cli.stats", "-index is required")
	}
	s, err := storage.LoadFile(*index)
	if err != nil {
		return err
	}
	st := s.ComputeStats()
	fmt.Printf("shards:               %d\n", st.Shards)
	fmt.Printf("tables:               %d (avg %.1f cols × %.1f rows)\n",
		st.Tables, st.AvgColumnsPerTbl, st.AvgRowsPerTable)
	fmt.Printf("index entries:        %d\n", st.Entries)
	fmt.Printf("distinct values:      %d (%d dictionary bytes)\n", st.DistinctValues, st.DictBytes)
	fmt.Printf("numeric cells:        %d (with quadrant bits)\n", st.NumericCells)
	fmt.Printf("posting lists:        avg %.2f, max %d\n", st.AvgPostingLength, st.MaxPostingLength)
	fmt.Printf("estimated footprint:  %d bytes\n", st.EstimatedBytes)
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	index := fs.String("index", "", "index file built by `blend index`")
	file := fs.String("file", "", "JSON plan document")
	noOpt := fs.Bool("no-opt", false, "disable the optimizer (B-NO)")
	timeout := fs.Duration("timeout", 0, "abort the plan after this duration (0 = none)")
	profile := fs.Bool("profile", false, "print a per-node execution profile")
	explain := fs.Bool("explain", false, "print the SQL executed per seeker, rewrites included")
	noNative := fs.Bool("no-native", false, "force the SQL interpreter (A/B against path=native under -explain)")
	asOf := fs.Uint64("as-of", 0, "execute against this retained generation instead of the current one (0 = current)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *index == "" || *file == "" {
		return berr.New(berr.CodeBadRequest, "cli.plan", "-index and -file are required")
	}
	d, err := blend.OpenIndex(*index, indexOptions(*noNative)...)
	if err != nil {
		return err
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	p, err := blend.ParsePlanJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	var opts []blend.RunOption
	if *noOpt {
		opts = append(opts, blend.WithoutOptimizer())
	}
	if *timeout > 0 {
		opts = append(opts, blend.WithDeadline(*timeout))
	}
	if *explain {
		opts = append(opts, blend.WithExplain())
	}
	if *asOf > 0 {
		opts = append(opts, blend.WithAsOf(*asOf))
	}
	res, err := d.Run(context.Background(), p, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %v\nseeker order: %v\nduration: %v\n", p, res.SeekerOrder, res.Duration)
	if *profile {
		fmt.Print(res.Profile())
	}
	if *explain {
		for _, id := range res.SeekerOrder {
			fmt.Printf("node[%s]: path=%s sql: %s\n", id, res.PathByNode[id], res.SQLByNode[id])
		}
	}
	for i, name := range res.Tables {
		fmt.Printf("%2d. %-30s score=%s\n", i+1, name, strconv.FormatFloat(res.Output[i].Score, 'g', 4, 64))
	}
	if len(res.Tables) == 0 {
		fmt.Println("no matching tables")
	}
	return nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ContinueOnError)
	lakeDir := fs.String("lake", "", "directory of CSV tables, subdirectories included")
	out := fs.String("out", "lake.blend", "output index file")
	shards := fs.Int("shards", 1, "hash-partition the index across N shards")
	appendMode := fs.Bool("append", false, "append -lake to the existing index at -out instead of rebuilding (bulk ingest; -shards comes from the existing index)")
	timeout := fs.Duration("timeout", 0, "abort an -append ingest after this duration (0 = none)")
	inspect := fs.Bool("inspect", false, "print the segment directory of the v4 index at -out and exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *inspect {
		return inspectIndex(*out)
	}
	if *lakeDir == "" {
		return berr.New(berr.CodeBadRequest, "cli.index", "-lake is required")
	}
	if *appendMode {
		d, err := blend.OpenIndex(*out)
		if err != nil {
			return err
		}
		ctx, cancel := queryContext(*timeout)
		defer cancel()
		report, err := d.IngestCSVDir(ctx, *lakeDir)
		if err != nil {
			return err
		}
		if err := d.SaveIndex(*out); err != nil {
			return err
		}
		fmt.Printf("appended %d tables (%d rows) in %d batch(es) in %v (%.0f tables/s) -> %s now holds %d tables\n",
			report.TablesAdded, report.RowsAdded, report.Batches, report.Duration.Round(time.Millisecond),
			report.Throughput(), *out, d.LiveTables())
		return nil
	}
	d, err := blend.IndexCSVDir(blend.ColumnStore, *lakeDir, blend.WithShards(*shards))
	if err != nil {
		return err
	}
	if err := d.SaveIndex(*out); err != nil {
		return err
	}
	fmt.Printf("indexed %d tables into %d shard(s) (%d bytes) -> %s\n",
		d.NumTables(), d.NumShards(), d.IndexSizeBytes(), *out)
	return nil
}

// inspectIndex prints a v4 index file's footer directory: per-shard
// section sizes, tombstone counts, and the postings compression ratio
// against a fixed-width encoding. It reads only the footer and the small
// eager sections, never materializing a shard.
func inspectIndex(path string) error {
	info, err := storage.InspectFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("index:    %s (%d bytes, version 4, %s)\n", path, info.FileBytes, info.Kind)
	fmt.Printf("tables:   %d (%d tombstoned)\n", info.Tables, info.Tombstones)
	fmt.Printf("entries:  %d across %d shard(s)\n", info.Entries, len(info.Shards))
	entryBytes := info.EntryBytes()
	if entryBytes > 0 {
		fmt.Printf("postings: %d bytes on disk vs %d raw (%.2fx compression)\n",
			entryBytes, info.RawEntryBytes(), float64(info.RawEntryBytes())/float64(entryBytes))
	}
	fmt.Printf("footer:   offset %d, refs %d bytes\n\n", info.FooterOff, info.RefsBytes)
	fmt.Printf("%5s %8s %6s %9s | %8s %8s %9s %8s %7s %6s\n",
		"shard", "tables", "dead", "entries", "catalog", "dict", "postings", "super", "ranges", "tombs")
	for i, sh := range info.Shards {
		fmt.Printf("%5d %8d %6d %9d |", i, sh.Tables, sh.Tombstones, sh.Entries)
		for _, sec := range sh.Sections {
			switch sec.Name {
			case "catalog", "dict", "super":
				fmt.Printf(" %8d", sec.Bytes)
			case "postings":
				fmt.Printf(" %9d", sec.Bytes)
			case "ranges":
				fmt.Printf(" %7d", sec.Bytes)
			case "tombstones":
				fmt.Printf(" %6d", sec.Bytes)
			}
		}
		fmt.Println()
	}
	return nil
}

func cmdSeek(args []string) error {
	fs := flag.NewFlagSet("seek", flag.ContinueOnError)
	index := fs.String("index", "", "index file built by `blend index`")
	op := fs.String("op", "sc", "seeker: sc, kw, or mc")
	values := fs.String("values", "", "comma-separated input values (sc/kw)")
	tuples := fs.String("tuples", "", "comma-separated tuples of |-separated values (mc)")
	k := fs.Int("k", 10, "top-k result size")
	preview := fs.Int("preview", 0, "print the first N rows of each result table")
	timeout := fs.Duration("timeout", 0, "abort the search after this duration (0 = none)")
	noNative := fs.Bool("no-native", false, "force the SQL interpreter instead of the native fast path")
	asOf := fs.Uint64("as-of", 0, "seek against this retained generation instead of the current one (0 = current)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *index == "" {
		return berr.New(berr.CodeBadRequest, "cli.seek", "-index is required")
	}
	if *k <= 0 {
		return berr.New(berr.CodeBadRequest, "cli.seek", "-k must be positive, got %d", *k)
	}
	d, err := blend.OpenIndex(*index, indexOptions(*noNative)...)
	if err != nil {
		return err
	}
	var seeker blend.Seeker
	switch *op {
	case "sc":
		seeker = blend.SC(splitList(*values), *k)
	case "kw":
		seeker = blend.KW(splitList(*values), *k)
	case "mc":
		var rows [][]string
		for _, t := range splitList(*tuples) {
			rows = append(rows, strings.Split(t, "|"))
		}
		if len(rows) == 0 {
			return berr.New(berr.CodeBadRequest, "cli.seek", "-tuples is required for mc")
		}
		seeker = blend.MC(rows, *k)
	default:
		return berr.New(berr.CodeBadRequest, "cli.seek", "unknown op %q", *op)
	}
	ctx, cancel := queryContext(*timeout)
	defer cancel()
	var seekOpts []blend.RunOption
	if *asOf > 0 {
		seekOpts = append(seekOpts, blend.WithAsOf(*asOf))
	}
	hits, err := d.Seek(ctx, seeker, seekOpts...)
	if err != nil {
		return err
	}
	names := d.TableNames(hits)
	for i, h := range hits {
		fmt.Printf("%2d. %-30s score=%s\n", i+1, names[i], strconv.FormatFloat(h.Score, 'g', 4, 64))
		if *preview > 0 {
			if err := d.TableByID(h.TableID).Format(os.Stdout, *preview); err != nil {
				return err
			}
		}
	}
	if len(hits) == 0 {
		fmt.Println("no matching tables")
	}
	return nil
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	index := fs.String("index", "", "index file built by `blend index`")
	query := fs.String("query", "", "SQL over the AllTables relation")
	limit := fs.Int("print", 50, "maximum rows to print")
	explain := fs.Bool("explain", false, "print the execution plan instead of results")
	timeout := fs.Duration("timeout", 0, "abort the query after this duration (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *index == "" || *query == "" {
		return berr.New(berr.CodeBadRequest, "cli.sql", "-index and -query are required")
	}
	d, err := blend.OpenIndex(*index)
	if err != nil {
		return err
	}
	if *explain {
		out, err := d.Engine().ExplainRawSQL(*query)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	ctx, cancel := queryContext(*timeout)
	defer cancel()
	res, err := d.Engine().ExecRawSQL(ctx, *query)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Columns(), "\t"))
	for r := 0; r < res.NumRows() && r < *limit; r++ {
		cells := make([]string, len(res.Columns()))
		for c := range cells {
			cells[c] = res.Cell(r, c).String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	if res.NumRows() > *limit {
		fmt.Printf("... (%d rows total)\n", res.NumRows())
	}
	return nil
}

// cmdDemo runs Example 1 of the paper on the Fig. 1 lake.
func cmdDemo() error {
	t1 := blend.NewTable("T1", "Team", "Size")
	for _, r := range [][2]string{{"Finance", "31"}, {"Marketing", "28"}, {"HR", "33"}, {"IT", "92"}, {"Sales", "80"}} {
		t1.MustAppendRow(r[0], r[1])
	}
	mk := func(name, year string, itLead string) *blend.Table {
		t := blend.NewTable(name, "Lead", "Year", "Team")
		rows := [][2]string{
			{itLead, "IT"}, {"Draco Malfoy", "Marketing"}, {"Harry Potter", "Finance"},
			{"Cho Chang", "R&D"}, {"Luna Lovegood", "Sales"}, {"Firenze", "HR"},
		}
		for _, r := range rows {
			t.MustAppendRow(r[0], year, r[1])
		}
		return t
	}
	lake := []*blend.Table{t1, mk("T2", "2022", "Tom Riddle"), mk("T3", "2024", "Ronald Weasley")}
	for _, t := range lake {
		t.InferKinds()
	}
	d := blend.IndexTables(blend.ColumnStore, lake)

	fmt.Println("Example 1: find up-to-date tables to fill the Head column of S")
	fmt.Println(`  positives: ("HR","Firenze")   negatives: ("IT","Tom Riddle")`)
	p := blend.NegativeExamplesPlan(
		[][]string{{"HR", "Firenze"}},
		[][]string{{"IT", "Tom Riddle"}}, 10)
	p.MustAddSeeker("dep", blend.SC([]string{"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10))
	p.MustAddCombiner("intersect", blend.Intersect(10), "exclude", "dep")
	res, err := d.Run(context.Background(), p)
	if err != nil {
		return err
	}
	fmt.Printf("  answer: %v (expected [T3])\n", res.Tables)
	fmt.Printf("  seekers executed in order %v with optimizer rewrites\n", res.SeekerOrder)
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
