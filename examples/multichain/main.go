// Multichain: the paper's Section 5.1 story in one program. libquantum's
// misses all come from ONE stalling slice — the structure the runahead
// buffer's deep single-chain replay is built for; stencil workloads like
// lbm stall through MANY load PCs hanging off one index, which only
// PRE's Stalling Slice Table covers (the runahead buffer's backward walk
// reconstructs a single {index, load} pair per episode).
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

	var ws []presim.Workload
	for _, name := range []string{"libquantum", "lbm"} {
		w, err := presim.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
	}
	plan, err := presim.Experiment{Name: "multichain", Workloads: ws, Modes: modes, Options: opt}.Expand()
	if err != nil {
		log.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	for wi, row := range set.Grid(0) {
		w, base := ws[wi], row[0]
		fmt.Printf("%s (%s, %d nominal chain(s)):\n", w.Name, w.Class, w.Chains)
		for mi, m := range modes {
			r := row[mi]
			marker := ""
			if sp := r.Speedup(base); sp >= bestSpeedup(row, base) && m != presim.ModeOoO {
				marker = "  <- best"
			}
			fmt.Printf("  %-10s IPC %.3f  speedup %.2fx%s\n", m, r.IPC, r.Speedup(base), marker)
		}
		fmt.Println()
	}
	fmt.Println("On the multi-slice stencil, traditional runahead and the runahead")
	fmt.Println("buffer pay the flush/refill tax for one covered stream, while PRE")
	fmt.Println("executes every slice in its SST and preserves the window at exit.")
}

func bestSpeedup(row []presim.Result, base presim.Result) float64 {
	best := 0.0
	for _, r := range row[1:] {
		if s := r.Speedup(base); s > best {
			best = s
		}
	}
	return best
}
