package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990},
		{1000, 0.50, 500},
		{21, 0.50, 11},
		{2000, 0.99, 1980},
		{1001, 0.99, 991}, // ceil(990.99) = 991
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Fatalf("n=%d q=%v: %v", c.n, c.q, err)
		}
		if got != c.want {
			t.Errorf("n=%d q=%v: got %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of 999 samples is rank 990 (ceil 989.01): 9 samples beyond.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples: want an error, 9 samples lie beyond it")
	}
	if _, err := percentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples: want an error, 9 samples lie beyond it")
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("no samples: want an error")
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	var l latencies
	for i := 0; i < 980; i++ {
		l.add(1)
	}
	for i := 0; i < 20; i++ {
		l.fail()
	}
	p99, err := l.p(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p99, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", p99)
	}
	if p50, _ := l.p(0.5); p50 != 1 {
		t.Errorf("p50 = %v, want 1", p50)
	}
	if l.count() != 1000 {
		t.Errorf("count = %d, want 1000", l.count())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of none = %v, want NaN", m)
	}
}
