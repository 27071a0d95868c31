// Wsbench runs the reproduction experiments of EXPERIMENTS.md and prints
// one table per paper claim. Each experiment validates a theorem bound,
// lemma property or analytical comparison from "Parallel Working-Set
// Search Structures" (SPAA 2018).
//
// Usage:
//
//	wsbench                 # run every experiment at full scale
//	wsbench -exp e4,e7      # run selected experiments
//	wsbench -quick          # reduced sizes (seconds instead of minutes)
//	wsbench -list           # list experiments
//	wsbench -json           # one JSON object per row
//
// The experiments reproduce the paper's claims; how fast wsd is, end to
// end and layer by layer, is the standing benchmark's question (bench/).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

type experiment struct {
	id   string
	desc string
	run  func(experiments.Scale) experiments.Table
}

var all = []experiment{
	{"e1", "M0 work vs working-set bound (Theorem 7)", experiments.E1M0WorkBound},
	{"e2", "entropy sort vs comparison sort (Theorems 28/30/33)", experiments.E2EntropySort},
	{"e3", "parallel pivot quality (Lemma 34)", experiments.E3ParallelPivot},
	{"e4", "M1 work vs working-set bound (Theorem 12)", experiments.E4M1WorkBound},
	{"e5", "M1 hot-op latency vs n (Theorem 13)", experiments.E5M1Latency},
	{"e6", "M2 work vs working-set bound (Theorem 22)", experiments.E6M2WorkBound},
	{"e7", "M2 hot-op latency vs n (Theorem 25)", experiments.E7M2HotLatency},
	{"e8", "working-set maps vs batched tree (Sections 3/6)", experiments.E8VsBatchedTree},
	{"e9", "throughput scaling with clients (Theorems 3/4)", experiments.E9Scalability},
	{"e10", "single-access cost vs recency (Lemma 6)", experiments.E10RecencyCurve},
	{"e12", "parallel buffer throughput (Appendix A.1)", experiments.E12ParallelBuffer},
	{"e13", "batched 2-3 tree operations (Appendix A.2)", experiments.E13TwoThreeBatch},
	{"e14", "ablation: entropy sort in M1 (Section 6)", experiments.E14AblationSort},
	{"e15", "ablation: batch-size parameter p (Sections 6/7)", experiments.E15AblationBatch},
	{"e16", "scheduler model: Brent bound + weak priority (Sections 4, 7.2)", experiments.E16SchedulerModel},
}

// emit prints one experiment table, as JSON lines or as an aligned
// table; it reports whether the caller should print its timing footer
// (suppressed in JSON mode to keep the output machine-readable).
func emit(table experiments.Table, id string, jsonOut bool) bool {
	if jsonOut {
		for _, line := range table.JSONRows(id) {
			fmt.Println(line)
		}
		return false
	}
	fmt.Println(table.String())
	return true
}

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "run at reduced scale")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonOut = flag.Bool("json", false, "emit one JSON object per experiment row instead of tables")
	)
	flag.Parse()

	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	selected := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			selected[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	ran := 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		table := e.run(scale)
		if emit(table, e.id, *jsonOut) {
			fmt.Printf("   (%s in %.1fs)\n\n", e.id, time.Since(start).Seconds())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; use -list")
		os.Exit(1)
	}
}
