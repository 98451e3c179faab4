package policy_test

import (
	"reflect"
	"strings"
	"testing"

	"corun/internal/core"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/sim"
	"corun/internal/workload"
)

func TestNamesCoverThePaperFamily(t *testing.T) {
	want := []string{"anneal", "default", "genetic", "hcs", "hcs+", "optimal", "random"}
	if got := policy.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestParseNormalizesCaseAliasesWhitespace(t *testing.T) {
	cases := map[string]string{
		"hcs":           "hcs",
		"HCS+":          "hcs+",
		"  hcs+ ":       "hcs+",
		"hcsplus":       "hcs+",
		"HCSPlus":       "hcs+",
		"metaheuristic": "genetic",
		" Genetic\t":    "genetic",
		"OPTIMAL":       "optimal",
		"Random":        "random",
	}
	for in, want := range cases {
		p, err := policy.Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", in, p.Name(), want)
		}
		canon, err := policy.Canonical(in)
		if err != nil || canon != want {
			t.Errorf("Canonical(%q) = %q, %v, want %q", in, canon, err, want)
		}
	}
}

func TestParseUnknownListsEveryValidName(t *testing.T) {
	_, err := policy.Parse("no-such-policy")
	if err == nil {
		t.Fatal("Parse of an unknown name succeeded")
	}
	for _, name := range policy.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("rejection %q does not list valid policy %q", err, name)
		}
	}
}

// stub is a minimal Planner for registration-collision tests.
type stub struct{ name string }

func (s *stub) Name() string { return s.name }
func (s *stub) Plan(*core.Context, policy.Options) (*core.Schedule, error) {
	return nil, nil
}

// named is a Policy that neither plans nor dispatches.
type named string

func (n named) Name() string { return string(n) }

// both is a Policy that claims to plan and to dispatch.
type both struct{ stub }

func (both) NeedsModel() bool { return false }
func (both) Dispatch(core.ExecOptions, []*workload.Instance, core.Oracle, policy.Options) (*sim.Result, error) {
	return nil, nil
}

func TestRegisterRejectsCollisionsAndNil(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("nil policy", func() { policy.Register(nil) })
	mustPanic("empty name", func() { policy.Register(&stub{name: "  "}) })
	mustPanic("duplicate canonical name", func() { policy.Register(&stub{name: "hcs"}) })
	mustPanic("name colliding with an alias", func() { policy.Register(&stub{name: "HCSPlus"}) })
	mustPanic("neither planner nor dispatcher", func() { policy.Register(named("inert")) })
	mustPanic("planner and dispatcher", func() { policy.Register(&both{stub{name: "twofaced"}}) })
}

// The paper's baselines are dispatchers; every other builtin plans.
// Only Random runs without the predictive model.
func TestRegistryRecordsPlanOrDispatch(t *testing.T) {
	for _, name := range policy.Names() {
		p, err := policy.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		_, dispatches := p.(policy.Dispatcher)
		if want := name == "random" || name == "default"; dispatches != want {
			t.Errorf("%s: dispatches = %v, want %v", name, dispatches, want)
		}
		if got, want := policy.NeedsModel(p), name != "random"; got != want {
			t.Errorf("%s: NeedsModel = %v, want %v", name, got, want)
		}
	}
	if c, err := policy.Canonical("Default-GPU"); err != nil || c != "default" {
		t.Errorf(`Canonical("Default-GPU") = %q, %v, want "default"`, c, err)
	}
	cx := contextOver(t, predictorFor(t, testBatch(t)))
	if _, err := policy.Plan("random", cx, policy.Options{}); err == nil {
		t.Error("Plan of a dispatcher succeeded")
	}
}

func TestListDescribesEveryPolicy(t *testing.T) {
	infos := policy.List()
	if len(infos) != len(policy.Names()) {
		t.Fatalf("List() has %d entries, Names() %d", len(infos), len(policy.Names()))
	}
	aliases := map[string][]string{}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("policy %q has no description", info.Name)
		}
		aliases[info.Name] = info.Aliases
	}
	if !reflect.DeepEqual(aliases["hcs+"], []string{"hcsplus"}) {
		t.Errorf("hcs+ aliases = %v, want [hcsplus]", aliases["hcs+"])
	}
	if !reflect.DeepEqual(aliases["genetic"], []string{"metaheuristic"}) {
		t.Errorf("genetic aliases = %v, want [metaheuristic]", aliases["genetic"])
	}
}

func TestPlanResolvesThroughRegistry(t *testing.T) {
	batch := testBatch(t)
	cx := contextOver(t, predictorFor(t, batch))
	if _, err := policy.Plan("bogus", cx, policy.Options{}); err == nil {
		t.Error("Plan of an unknown name succeeded")
	}
	plan, err := policy.Plan("hcsplus", cx, policy.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(len(batch)); err != nil {
		t.Fatal(err)
	}
	p, err := policy.Parse("hcs+")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := policy.PlanWith(p, cx, policy.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, direct) {
		t.Errorf("alias plan %v differs from resolved plan %v", plan, direct)
	}
}

// TestCachedPredictorMatchesUncachedBitForBit is the acceptance
// criterion of the memoized prediction layer: for every registered
// policy, planning over a model.CachedPredictor must produce exactly
// the schedule and predicted makespan of the uncached predictor, and
// dispatching over it exactly the simulated result.
func TestCachedPredictorMatchesUncachedBitForBit(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cached, err := model.NewCachedPredictor(pred, testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		opts := policy.Options{Seed: 7}
		p, err := policy.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := p.(policy.Dispatcher); ok {
			want, err := d.Dispatch(testExec(t), batch, pred, opts)
			if err != nil {
				t.Fatalf("%s uncached: %v", name, err)
			}
			got, err := d.Dispatch(testExec(t), batch, cached, opts)
			if err != nil {
				t.Fatalf("%s cached: %v", name, err)
			}
			if w, g := simOutcome(want), simOutcome(got); w != g {
				t.Errorf("%s: cached dispatch %s differs from uncached %s", name, g, w)
			}
			continue
		}
		raw := contextOver(t, pred)
		memo := contextOver(t, cached)
		want, err := policy.Plan(name, raw, opts)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		got, err := policy.Plan(name, memo, opts)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: cached plan %v differs from uncached %v", name, got, want)
		}
		wantT, err := raw.PredictedMakespan(want)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := memo.PredictedMakespan(got)
		if err != nil {
			t.Fatal(err)
		}
		if wantT != gotT {
			t.Errorf("%s: cached makespan %v differs from uncached %v", name, gotT, wantT)
		}
	}
	stats := cached.Stats()
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Errorf("cache never exercised: %+v", stats)
	}
}

// TestParallelSearchMatchesSerial pins the determinism contract of the
// worker-pool fan-out: the optimal and genetic searches return the
// same result for every worker count.
func TestParallelSearchMatchesSerial(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cx := contextOver(t, pred)
	for _, name := range []string{"optimal", "genetic"} {
		serial, err := policy.Plan(name, cx, policy.Options{Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, workers := range []int{0, 2, 7} {
			fanned, err := policy.Plan(name, cx, policy.Options{Seed: 7, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(serial, fanned) {
				t.Errorf("%s: workers=%d plan %v differs from serial %v", name, workers, fanned, serial)
			}
		}
	}
}
