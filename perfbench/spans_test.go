package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "epoch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	// epoch: 100 - [10,50) - [90,100) = 50.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7} {
		if got[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], want)
		}
	}
	by := selfByName(append(spans, span{ID: 7, Name: "a", Start: 0, End: 5}))
	if by["a"] != 25 {
		t.Errorf("self time of a = %d, want 25", by["a"])
	}
}

func TestTracer(t *testing.T) {
	var none *tracer
	if id := none.open("x", "r", 0, time.Now()); id != 0 {
		t.Errorf("nil tracer open = %d", id)
	}
	none.close(0, time.Now())
	if none.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := newTracer()
	t0 := tr.t0
	p := tr.open("epoch", "e1", 0, t0)
	c := tr.record("sim", "e1", p, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.close(p, t0.Add(4*time.Millisecond))
	s := tr.snapshot()
	if len(s) != 2 || s[c-1].Parent != p || s[p-1].End != int64(4*time.Millisecond) {
		t.Fatalf("spans = %+v", s)
	}
	if self := selfTimes(s); self[p] != int64(2*time.Millisecond) {
		t.Errorf("epoch self time = %v, want 2ms", time.Duration(self[p]))
	}
}
