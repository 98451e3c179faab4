// Cluster: serve a heavy arrival stream on a small fleet of capped APU
// nodes — the shared-server/data-center setting the paper's
// introduction motivates. Compares fleet sizes and balancing policies
// on job latency, completion time, and energy.
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

	// A bursty stream: 36 jobs, ~6 s mean gaps — far more than one
	// node can absorb.
	arrivals, err := corun.GenerateArrivals(36, 6, 11)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fleet sizing (affinity-aware balancing, HCS+ per node):")
	for _, nodes := range []int{1, 2, 4} {
		res, err := sys.ServeCluster(arrivals, nodes, corun.AffinityAware, "hcs+", 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d node(s): done %7.1fs  mean response %7.1fs  energy %6.0f J  imbalance %.0f%%\n",
			nodes, float64(res.Done), float64(res.MeanResponse), res.TotalEnergyJ, 100*res.Imbalance)
	}

	fmt.Println("\nbalancing policies (3 nodes):")
	for _, bal := range []corun.Balancer{corun.RoundRobin, corun.LeastLoaded, corun.AffinityAware} {
		res, err := sys.ServeCluster(arrivals, 3, bal, "hcs+", 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s done %7.1fs  mean response %7.1fs  imbalance %.0f%%\n",
			bal, float64(res.Done), float64(res.MeanResponse), 100*res.Imbalance)
	}

	fmt.Println("\nscheduling policies per node (3 nodes, affinity-aware):")
	for _, pol := range []string{"hcs+", "random"} {
		res, err := sys.ServeCluster(arrivals, 3, corun.AffinityAware, pol, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s done %7.1fs  mean response %7.1fs  energy %6.0f J\n",
			pol, float64(res.Done), float64(res.MeanResponse), res.TotalEnergyJ)
	}
}
