// Onlineserver: run a bursty stream of arriving jobs through the
// online epoch scheduler under a 15 W cap, comparing the HCS+ policy
// against random dispatch on job latency — the online operating mode
// the paper's introduction motivates for shared servers.
package main

import (
	"fmt"
	"log"

	"corun"
)

func main() {
	sys, err := corun.NewSystem(corun.WithPowerCap(15))
	if err != nil {
		log.Fatal(err)
	}

	// 24 jobs arriving with ~20 s mean gaps: bursts queue up and the
	// per-epoch co-schedule quality decides how fast the queue drains.
	arrivals, err := corun.GenerateArrivals(24, 20, 42)
	if err != nil {
		log.Fatal(err)
	}

	for _, policy := range []string{"hcs+", "random"} {
		res, err := sys.Serve(arrivals, policy, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s epochs %2d  done %7.1fs  mean response %7.1fs  max %7.1fs  energy %.0f J\n",
			policy, res.Epochs, float64(res.Done),
			float64(res.MeanResponse), float64(res.MaxResponse), res.EnergyJ)
	}

	// Show the latency of one specific arrival under HCS+.
	res, err := sys.Serve(arrivals, "hcs+", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst five job outcomes under hcs+:")
	for _, o := range res.Outcomes[:5] {
		fmt.Printf("  %-16s arrived %7.1fs  started %7.1fs  finished %7.1fs  response %6.1fs\n",
			o.Label, float64(o.Arrived), float64(o.Started), float64(o.Finished), float64(o.Response()))
	}
}
