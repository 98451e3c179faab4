package model

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

// bracketBinary is the reference bracket: a binary search over the
// axis.
func bracketBinary(xs []float64, x float64) (int, int, float64) {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	hi := sort.SearchFloat64s(xs, x)
	lo := hi - 1
	span := xs[hi] - xs[lo]
	if span <= 0 {
		return lo, hi, 0
	}
	return lo, hi, (x - xs[lo]) / span
}

// valueAtPerCorner is the reference surface interpolation: it brackets
// both of the surface's own axes.
func (s *Surface) valueAtPerCorner(table [][]float64, cpuBW, gpuBW float64) float64 {
	i0, i1, tx := bracketBinary(s.CPUBW, cpuBW)
	j0, j1, ty := bracketBinary(s.GPUBW, gpuBW)
	v0 := units.Lerp(table[i0][j0], table[i0][j1], ty)
	v1 := units.Lerp(table[i1][j0], table[i1][j1], ty)
	return units.Lerp(v0, v1, tx)
}

// degradationPerCorner is the reference staged interpolation: every
// corner surface brackets its own two axes.
func (c *Characterization) degradationPerCorner(dev apu.Device, cpuBW, gpuBW, cpuGHz, gpuGHz float64) float64 {
	a0, a1, ta := bracketBinary(c.cpuFreqGHz, cpuGHz)
	b0, b1, tb := bracketBinary(c.gpuFreqGHz, gpuGHz)
	val := func(a, b int) float64 {
		s := c.Surfaces[a][b]
		if dev == apu.CPU {
			return s.valueAtPerCorner(s.DegCPU, cpuBW, gpuBW)
		}
		return s.valueAtPerCorner(s.DegGPU, cpuBW, gpuBW)
	}
	v0 := units.Lerp(val(a0, b0), val(a0, b1), tb)
	v1 := units.Lerp(val(a1, b0), val(a1, b1), tb)
	return units.Lerp(v0, v1, ta)
}

// probes returns every knot of the axes, the midpoint of every pair of
// neighbouring knots, and one value clamped below and one above.
func probes(axes ...[]float64) []float64 {
	var knots []float64
	for _, xs := range axes {
		knots = append(knots, xs...)
	}
	slices.Sort(knots)
	knots = slices.Compact(knots)
	out := append([]float64{knots[0] - 1, knots[len(knots)-1] + 1}, knots...)
	for i := 1; i < len(knots); i++ {
		out = append(out, (knots[i-1]+knots[i])/2)
	}
	return out
}

// Bracketing each distinct axis once per query must not move a single
// bit: Degradation equals the per-corner interpolation on a sweep over
// every knot, the midpoints between knots, and values clamped below
// and above every axis. The sweep covers a fresh characterization,
// whose surfaces share axes along rows and columns, and a saved one
// edited so that one row's surfaces carry different CPU axes (and one
// column's different GPU axes), then re-loaded.
func TestDegradationMatchesPerCornerInterpolation(t *testing.T) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	fresh, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}

	if fresh.cpuAxis[1][2] != fresh.cpuAxis[1][0] || fresh.gpuAxis[2][1] != fresh.gpuAxis[0][1] {
		t.Fatal("a fresh characterization's surfaces do not share their axes; the case would test nothing")
	}

	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var p persistedChar
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	for i := range p.Surfaces[1][2].CPUBW {
		p.Surfaces[1][2].CPUBW[i] *= 1.1
	}
	for i := range p.Surfaces[2][1].GPUBW {
		p.Surfaces[2][1].GPUBW[i] *= 0.9
	}
	edited, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCharacterization(bytes.NewReader(edited), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cpuAxis[1][2] == loaded.cpuAxis[1][1] || loaded.gpuAxis[2][1] == loaded.gpuAxis[1][1] {
		t.Fatal("edited axes still share a name; the case would test nothing")
	}

	for _, tc := range []struct {
		name string
		c    *Characterization
	}{{"fresh", fresh}, {"edited", loaded}} {
		var cpuAxes, gpuAxes [][]float64
		for _, row := range tc.c.Surfaces {
			for _, s := range row {
				cpuAxes = append(cpuAxes, s.CPUBW)
				gpuAxes = append(gpuAxes, s.GPUBW)
			}
		}
		cpuBWs, gpuBWs := probes(cpuAxes...), probes(gpuAxes...)
		cpuGHz, gpuGHz := probes(tc.c.cpuFreqGHz), probes(tc.c.gpuFreqGHz)
		n := 0
		for _, cf := range cpuGHz {
			for _, gf := range gpuGHz {
				for _, cb := range cpuBWs {
					for _, gb := range gpuBWs {
						for d := apu.CPU; d <= apu.GPU; d++ {
							got := tc.c.Degradation(d, cb, gb, cf, gf)
							want := tc.c.degradationPerCorner(d, cb, gb, cf, gf)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: Degradation(%v, %v, %v, %v, %v) = %v, per corner %v",
									tc.name, d, cb, gb, cf, gf, got, want)
							}
							n++
						}
					}
				}
			}
		}
		t.Logf("%s: %d queries bit-equal", tc.name, n)
	}
}
