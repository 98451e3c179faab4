package corun_test

import (
	"fmt"
	"log"

	"corun"
)

// Example demonstrates the full pipeline: build the system under a
// power cap, prepare a batch, plan with HCS+, and execute.
func Example() {
	sys, err := corun.NewSystem(corun.WithPowerCap(15))
	if err != nil {
		log.Fatal(err)
	}
	w, err := sys.Prepare(corun.Batch8())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := w.Schedule("hcs+")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d jobs finished, cap respected: %v\n",
		len(rep.Completions), rep.CapViolations == 0)
	// Output:
	// all 8 jobs finished, cap respected: true
}

// ExampleSubset schedules a hand-picked set of benchmarks.
func ExampleSubset() {
	batch, err := corun.Subset("dwt2d", "hotspot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(batch), batch[0].Label, batch[1].Label)
	// Output:
	// 2 dwt2d hotspot
}

// ExampleWorkload_LowerBound computes the paper's bound on the optimal
// makespan for a batch.
func ExampleWorkload_LowerBound() {
	sys, err := corun.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	w, err := sys.Prepare(corun.Batch8())
	if err != nil {
		log.Fatal(err)
	}
	bound, err := w.LowerBound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bound > 0)
	// Output:
	// true
}

// ExampleSystem_Serve runs an online arrival stream through the epoch
// scheduler.
func ExampleSystem_Serve() {
	sys, err := corun.NewSystem(corun.WithPowerCap(15))
	if err != nil {
		log.Fatal(err)
	}
	a1, err := corun.ArrivalOf("lud", 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	a2, err := corun.ArrivalOf("hotspot", 5, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Serve([]corun.Arrival{a1, a2}, "hcs+", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d jobs in %d epochs\n", len(res.Outcomes), res.Epochs)
	// Output:
	// served 2 jobs in 2 epochs
}
