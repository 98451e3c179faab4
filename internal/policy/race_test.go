package policy_test

// Concurrency test for shared scheduling state, written to run under
// `go test -race` (part of `make verify`), mirroring the style of
// internal/server/race_test.go: many goroutines run every registered
// policy on one shared scheduling context whose oracle is one shared
// model.CachedPredictor — planners through policy.Plan, dispatchers
// (which read the same oracle) through Dispatch — while others
// evaluate makespans. Beyond the absence of data races, each policy
// must return the same answer to every goroutine — the memo tables
// may reorder work but never change an answer.

import (
	"fmt"
	"sync"
	"testing"

	"corun/internal/model"
	"corun/internal/policy"
)

func TestEngineConcurrentPlanning(t *testing.T) {
	batch := testBatch(t)
	pred := predictorFor(t, batch)
	cached, err := model.NewCachedPredictor(pred, testCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	cx := contextOver(t, cached)
	exec := testExec(t)

	// run plans (or dispatches) one policy and renders its answer.
	run := func(name string) (string, error) {
		p, err := policy.Parse(name)
		if err != nil {
			return "", err
		}
		if d, ok := p.(policy.Dispatcher); ok {
			res, err := d.Dispatch(exec, batch, cx.Oracle, policy.Options{Seed: 7})
			if err != nil {
				return "", err
			}
			return simOutcome(res), nil
		}
		plan, err := policy.Plan(name, cx, policy.Options{Seed: 7})
		if err != nil {
			return "", err
		}
		ms, err := cx.PredictedMakespan(plan)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v @ %v", plan, ms), nil
	}

	// Serial reference answers, computed before any concurrency starts.
	want := map[string]string{}
	for _, name := range policy.Names() {
		got, err := run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = got
	}

	const planners = 4
	var wg sync.WaitGroup
	for _, name := range policy.Names() {
		for g := 0; g < planners; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				got, err := run(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got != want[name] {
					t.Errorf("%s: concurrent answer %s, serial reference %s", name, got, want[name])
				}
			}(name)
		}
	}
	// Cache readers race the planners on the predictor's stats surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := cached.Stats()
			if s.Entries < 0 {
				t.Error("negative cache size")
				return
			}
		}
	}()
	wg.Wait()

	if s := cached.Stats(); s.Hits == 0 {
		t.Errorf("shared cache saw no hits across %d planning calls: %+v",
			planners*len(policy.Names()), s)
	}
}
