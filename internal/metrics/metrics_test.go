package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPrecisionAtK(t *testing.T) {
	rel := SetOf("a", "b", "c")
	retrieved := []string{"a", "x", "b", "y"}
	if got := PrecisionAtK(retrieved, rel, 2); got != 0.5 {
		t.Fatalf("P@2 = %v", got)
	}
	if got := PrecisionAtK(retrieved, rel, 4); got != 0.5 {
		t.Fatalf("P@4 = %v", got)
	}
	if got := PrecisionAtK(nil, rel, 5); got != 0 {
		t.Fatalf("empty retrieval = %v", got)
	}
	// k beyond the retrieval length divides by the actual length.
	if got := PrecisionAtK([]string{"a"}, rel, 10); got != 1 {
		t.Fatalf("short retrieval = %v", got)
	}
	// k < 0 means no cut.
	if got := PrecisionAtK(retrieved, rel, -1); got != 0.5 {
		t.Fatalf("no cut = %v", got)
	}
}

func TestRecallAtK(t *testing.T) {
	rel := SetOf("a", "b", "c", "d")
	retrieved := []string{"a", "x", "b"}
	if got := RecallAtK(retrieved, rel, 3); got != 0.5 {
		t.Fatalf("R@3 = %v", got)
	}
	if got := RecallAtK(retrieved, rel, 1); got != 0.25 {
		t.Fatalf("R@1 = %v", got)
	}
	if got := RecallAtK(retrieved, nil, 3); got != 0 {
		t.Fatalf("no relevant = %v", got)
	}
}

func TestAveragePrecision(t *testing.T) {
	rel := SetOf("a", "b")
	// Hits at ranks 1 and 3: AP = (1/1 + 2/3) / 2.
	got := AveragePrecisionAtK([]string{"a", "x", "b"}, rel, 10)
	want := (1.0 + 2.0/3.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AP = %v, want %v", got, want)
	}
	// Perfect ranking has AP 1.
	if got := AveragePrecisionAtK([]string{"a", "b"}, rel, 10); got != 1 {
		t.Fatalf("perfect AP = %v", got)
	}
	// Nothing relevant retrieved is 0.
	if got := AveragePrecisionAtK([]string{"x", "y"}, rel, 10); got != 0 {
		t.Fatalf("miss AP = %v", got)
	}
	// Normalization uses min(k, |relevant|).
	if got := AveragePrecisionAtK([]string{"a"}, rel, 1); got != 1 {
		t.Fatalf("k-normalized AP = %v", got)
	}
}

func TestMeanMetrics(t *testing.T) {
	runs := []Run{
		{Retrieved: []string{"a", "b"}, Relevant: SetOf("a", "b")},
		{Retrieved: []string{"x", "y"}, Relevant: SetOf("a", "b")},
	}
	if got := MeanPrecisionAtK(runs, 2); got != 0.5 {
		t.Fatalf("mean P = %v", got)
	}
	if got := MeanRecallAtK(runs, 2); got != 0.5 {
		t.Fatalf("mean R = %v", got)
	}
	if got := MeanAveragePrecisionAtK(runs, 2); got != 0.5 {
		t.Fatalf("MAP = %v", got)
	}
	if MeanPrecisionAtK(nil, 2) != 0 || MeanRecallAtK(nil, 2) != 0 || MeanAveragePrecisionAtK(nil, 2) != 0 {
		t.Fatal("empty runs should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

// Metric bounds: all measures live in [0, 1] for arbitrary ranked lists.
func TestBoundsQuick(t *testing.T) {
	f := func(retrieved []string, relevant []string, k int) bool {
		// A ranked list names each item once; with a relevant item listed
		// twice, recall and AP would count it twice and could exceed 1, so
		// the generated list is deduplicated first (random lists repeat
		// the empty string often enough to fail now and then otherwise).
		seen := SetOf()
		ranked := retrieved[:0]
		for _, r := range retrieved {
			if !seen[r] {
				seen[r] = true
				ranked = append(ranked, r)
			}
		}
		retrieved = ranked
		rel := SetOf(relevant...)
		k = k % 50
		p := PrecisionAtK(retrieved, rel, k)
		r := RecallAtK(retrieved, rel, k)
		ap := AveragePrecisionAtK(retrieved, rel, k)
		ok := func(x float64) bool { return x >= 0 && x <= 1 }
		return ok(p) && ok(r) && ok(ap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOf(t *testing.T) {
	s := SetOf("a", "b", "a")
	if len(s) != 2 || !s["a"] || !s["b"] || s["c"] {
		t.Fatalf("SetOf = %v", s)
	}
}
