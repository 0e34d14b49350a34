package main

import "testing"

func TestNearestRank(t *testing.T) {
	v := sample{15, 20, 35, 40, 50}.sorted()
	for _, c := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := nearestRank(v, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummarizeOrderAndTail(t *testing.T) {
	var s sample
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	q, err := summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != 1000 || q.P50 != 500 || q.P90 != 900 || q.P99 != 990 || q.Max != 1000 {
		t.Fatalf("summary %+v", q)
	}
	if err := requireTail("x", 1000, 99, 10); err != nil {
		t.Errorf("1000 samples hold 10 beyond p99: %v", err)
	}
	if err := requireTail("x", 999, 99, 10); err == nil {
		t.Error("999 samples hold only 9 beyond p99, want an error")
	}
	if _, err := summarize(nil); err == nil {
		t.Error("empty sample summarized")
	}
}

func TestMedianIsAnObservation(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median = %v, want the lower middle 2", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}
