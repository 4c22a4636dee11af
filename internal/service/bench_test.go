package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"blend"
)

// benchDiscovery builds a synthetic lake big enough that /v1/query does
// real index work: nTables tables of 40 rows with overlapping city
// vocabularies, sharded for concurrent scans.
func benchDiscovery(nTables, shards int) *blend.Discovery {
	rng := rand.New(rand.NewSource(42))
	tables := make([]*blend.Table, nTables)
	for i := range tables {
		t := blend.NewTable(fmt.Sprintf("t%03d", i), "City", "Code", "Metric")
		for r := 0; r < 40; r++ {
			c := rng.Intn(200)
			t.MustAppendRow(
				fmt.Sprintf("city_%03d", c),
				fmt.Sprintf("code_%03d", (c+i)%200),
				fmt.Sprintf("%d", rng.Intn(1000)))
		}
		t.InferKinds()
		tables[i] = t
	}
	return blend.IndexTables(blend.ColumnStore, tables, blend.WithShards(shards))
}

// benchQueryBody is a three-seeker plan with a Union head: independent
// sub-trees, so the scheduler overlaps them.
func benchQueryBody() string {
	var vals []string
	for i := 0; i < 24; i++ {
		vals = append(vals, fmt.Sprintf("%q", fmt.Sprintf("city_%03d", i*7%200)))
	}
	list := strings.Join(vals, ",")
	return fmt.Sprintf(`{
	  "plan": {"nodes": [
	    {"id": "sc", "seeker": {"kind": "sc", "values": [%s], "k": 10}},
	    {"id": "kw", "seeker": {"kind": "kw", "values": [%s], "k": 10}},
	    {"id": "mc", "seeker": {"kind": "mc", "tuples": [["city_007","code_007"]], "k": 10}},
	    {"id": "any", "combiner": {"kind": "union", "k": 10}, "inputs": ["sc", "kw", "mc"]}
	  ]}
	}`, list, list)
}

// BenchmarkServeQuery is the end-to-end service benchmark: concurrent
// POST /v1/query load against an indexed lake, through real HTTP
// (connection handling, JSON decode, plan parse, engine run, JSON
// encode). Run with -cpu to scale client concurrency.
func BenchmarkServeQuery(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"mono", 1},
		{"sharded4", 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			srv := newTestServer(b, benchDiscovery(120, cfg.shards))
			client := srv.Client()
			client.Timeout = 30 * time.Second
			body := benchQueryBody()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := client.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			})
		})
	}
}

// BenchmarkServeSeek measures the cheapest round trip: one keyword
// seeker per request.
func BenchmarkServeSeek(b *testing.B) {
	srv := newTestServer(b, benchDiscovery(120, 1))
	client := srv.Client()
	body := `{"seeker": {"kind": "kw", "values": ["city_007", "city_014"], "k": 10}}`
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(srv.URL+"/v1/seek", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
}
