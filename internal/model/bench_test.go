package model

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/profile"
	"corun/internal/workload"
)

var degradationSink float64

// BenchmarkStagedDegradation times the miss path of a memoizing
// predictor: one staged-interpolation Predictor.Degradation query,
// cycling over every (job, device, level, co-runner, level) query of
// the eight benchmark programs on the default characterization.
func BenchmarkStagedDegradation(b *testing.B) {
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	char, err := Characterize(CharacterizeOptions{Cfg: cfg, Mem: mem})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.Collect(cfg, mem, workload.Batch8())
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPredictor(char, prof)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		i    int
		dev  apu.Device
		f, j int
		g    int
	}
	var qs []query
	n := p.NumJobs()
	for i := 0; i < n; i++ {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := 0; f < cfg.NumFreqs(d); f++ {
				for j := 0; j < n; j++ {
					for g := 0; g < cfg.NumFreqs(d.Other()); g++ {
						qs = append(qs, query{i, d, f, j, g})
					}
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		q := qs[k%len(qs)]
		degradationSink += p.Degradation(q.i, q.dev, q.f, q.j, q.g)
	}
}
