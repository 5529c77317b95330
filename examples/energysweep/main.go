// Energysweep: reproduce the paper's Figure 3 energy argument on a small
// scale and decompose WHERE each mechanism's energy goes. Traditional
// runahead fetches, decodes and executes a full window twice per episode
// (runahead pass + post-flush re-execution); PRE preserves the window, so
// its extra dynamic work is outweighed by the static energy its shorter
// runtime saves.
package main

import (
	"fmt"
	"log"

	presim "repro"
)

func main() {
	opt := presim.DefaultOptions()
	opt.MeasureUops = 200_000
	modes := presim.Modes()

	names := []string{"mcf", "libquantum", "milc", "omnetpp"}
	var ws []presim.Workload
	for _, n := range names {
		w, err := presim.WorkloadByName(n)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}
	plan, err := presim.Experiment{Name: "energysweep", Workloads: ws, Modes: modes, Options: opt}.Expand()
	if err != nil {
		log.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	results := set.Grid(0)

	for wi, w := range ws {
		base := results[wi][0]
		fmt.Printf("%s:\n", w.Name)
		fmt.Printf("  %-10s %10s %10s %10s %10s %10s %9s\n",
			"mode", "coreDyn", "coreStatic", "memDyn", "dramStatic", "total(J)", "saving")
		for mi, m := range modes {
			e := results[wi][mi].Energy
			fmt.Printf("  %-10s %10.2e %10.2e %10.2e %10.2e %10.2e %+8.1f%%\n",
				m, e.CoreDynamic, e.CoreStatic, e.MemDynamic, e.DRAMStatic,
				e.Total(), 100*e.SavingsVs(base.Energy))
		}
		fmt.Println()
	}
}
