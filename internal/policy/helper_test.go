package policy_test

// Shared fixtures: the one-time characterization pass plus builders
// for the prediction pipeline and scheduling contexts, used by the
// registry tests, the -race planning test, and the cached-vs-uncached
// benchmarks alike.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// testCap is the paper's default 15 W package cap.
const testCap = units.Watts(15)

var pipe struct {
	once sync.Once
	cfg  *apu.Config
	mem  *memsys.Model
	char *model.Characterization
	err  error
}

// characterize runs the offline characterization once and shares it
// across every test and benchmark in the package.
func characterize(tb testing.TB) (*apu.Config, *memsys.Model, *model.Characterization) {
	tb.Helper()
	pipe.once.Do(func() {
		pipe.cfg = apu.DefaultConfig()
		pipe.mem = memsys.Default()
		pipe.char, pipe.err = model.Characterize(model.CharacterizeOptions{Cfg: pipe.cfg, Mem: pipe.mem})
	})
	if pipe.err != nil {
		tb.Fatal(pipe.err)
	}
	return pipe.cfg, pipe.mem, pipe.char
}

// testCfg returns the shared machine config.
func testCfg(tb testing.TB) *apu.Config {
	tb.Helper()
	cfg, _, _ := characterize(tb)
	return cfg
}

// predictorFor builds the uncached prediction pipeline for a batch.
func predictorFor(tb testing.TB, batch []*workload.Instance) *model.Predictor {
	tb.Helper()
	cfg, mem, char := characterize(tb)
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		tb.Fatal(err)
	}
	pred, err := model.NewPredictor(char, prof)
	if err != nil {
		tb.Fatal(err)
	}
	return pred
}

// contextOver wraps an oracle in a fresh scheduling context under the
// test cap. A fresh context means fresh frequency/makespan memo tables:
// the only state carried between contexts is whatever the oracle itself
// caches.
func contextOver(tb testing.TB, o core.Oracle) *core.Context {
	tb.Helper()
	cfg, _, _ := characterize(tb)
	cx, err := core.NewContext(o, cfg, testCap)
	if err != nil {
		tb.Fatal(err)
	}
	return cx
}

// testExec is the execution setup under the test cap.
func testExec(tb testing.TB) core.ExecOptions {
	tb.Helper()
	cfg, mem, _ := characterize(tb)
	return core.ExecOptions{Cfg: cfg, Mem: mem, Cap: testCap}
}

// simOutcome is what a dispatcher's run is compared on: the bits of
// its makespan and energy, and its completion order.
func simOutcome(r *sim.Result) string {
	s := fmt.Sprintf("%#x %#x", math.Float64bits(float64(r.Makespan)), math.Float64bits(r.EnergyJ))
	for _, c := range r.Completions {
		s += fmt.Sprintf(" %d%v", c.Inst.ID, c.Dev)
	}
	return s
}

// testBatch is the 6-job planning batch used across the tests: small
// enough for the optimal search, varied enough to exercise every
// policy's branches.
func testBatch(tb testing.TB) []*workload.Instance {
	tb.Helper()
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud")
	if err != nil {
		tb.Fatal(err)
	}
	return batch
}
