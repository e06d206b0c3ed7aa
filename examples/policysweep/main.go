// Policysweep: evaluate every registered L1D management scheme plus the
// doubled cache on a set of cache-insufficient applications plus one
// cache-sufficient control (BP), so both class geomeans are defined — a
// small-scale version of the paper's Figure 10 extended with the
// literature schemes, built on the public RunSuite API. The scheme
// columns come from the policy registry, so a newly registered policy
// shows up here with no code change. RunSuite executes the (app,
// scheme) points in parallel and scatters them back by submission
// order, so the printed table is identical at every worker count.
package main

import (
	"context"
	"log"
	"os"

	dlpsim "repro"
)

func main() {
	log.SetFlags(0)
	var apps []dlpsim.Workload
	for _, abbr := range []string{"BP", "CFD", "PVR", "SS", "SRK", "KM"} {
		spec, err := dlpsim.WorkloadByAbbr(abbr)
		if err != nil {
			log.Fatal(err)
		}
		apps = append(apps, spec)
	}
	// Every registered policy at 16KB, plus the doubled-capacity baseline.
	big, err := dlpsim.ConfigForL1D(32)
	if err != nil {
		log.Fatal(err)
	}
	schemes := append(dlpsim.PolicySchemes(), dlpsim.Scheme{Name: "32KB", Policy: dlpsim.Baseline, Config: big})

	res, err := dlpsim.RunSuite(context.Background(), nil, apps, schemes)
	if err != nil {
		log.Fatal(err)
	}
	tab, err := res.Fig10IPC()
	if err != nil {
		log.Fatal(err)
	}
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
