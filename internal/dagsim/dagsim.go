// Package dagsim implements the paper's parallel computation model
// (Section 4) as a discrete-time simulator: program DAGs of unit-time
// nodes executed by a greedy scheduler (at every step, if k nodes are
// ready, min(k, p) of them execute) or by the weak-priority scheduler of
// Section 7.2 (two priority classes; at every step min(k, p/2) ready
// nodes execute overall, and if the high class has k1 ready nodes,
// min(k1, p/2) of them execute).
//
// The simulator exists to validate, in isolation from the data
// structures, the scheduler-side premises of Theorems 3 and 4: greedy
// execution finishes in at most T1/p + T∞ steps (Brent's bound, the
// "work term" plus "span term" shape of every running-time statement in
// the paper), and weak prioritization bounds the completion of
// high-priority work independently of low-priority load.
package dagsim

import "fmt"

// Class is a node's scheduling class.
type Class uint8

const (
	// Low is the default class (the paper's Q2).
	Low Class = iota
	// High is the weakly prioritized class (the paper's Q1).
	High
)

// Node is one unit-time instruction of a program DAG.
type Node struct {
	id       int
	class    Class
	succs    []*Node
	npreds   int
	pending  int // remaining unexecuted predecessors (during a run)
	execStep int // step at which the node executed (during a run)
}

// DAG is a program DAG under construction or execution.
type DAG struct {
	nodes []*Node
}

// New creates an empty DAG.
func New() *DAG { return &DAG{} }

// Node adds a unit-time node of the given class with the given
// predecessors (dependency edges pred -> new node).
func (d *DAG) Node(class Class, preds ...*Node) *Node {
	n := &Node{id: len(d.nodes), class: class}
	for _, p := range preds {
		p.succs = append(p.succs, n)
		n.npreds++
	}
	d.nodes = append(d.nodes, n)
	return n
}

// Len returns the number of nodes (the work T1).
func (d *DAG) Len() int { return len(d.nodes) }

// Work returns T1, the total number of nodes.
func (d *DAG) Work() int { return len(d.nodes) }

// Span returns T∞, the number of nodes on the longest path.
func (d *DAG) Span() int {
	depth := make([]int, len(d.nodes))
	span := 0
	// Nodes are created in topological order (predecessors must exist
	// before their successors), so one forward pass suffices.
	for _, n := range d.nodes {
		if depth[n.id] == 0 {
			depth[n.id] = 1
		}
		if depth[n.id] > span {
			span = depth[n.id]
		}
		for _, s := range n.succs {
			if depth[n.id]+1 > depth[s.id] {
				depth[s.id] = depth[n.id] + 1
			}
		}
	}
	return span
}

// Result summarizes one simulated execution.
type Result struct {
	Steps     int // total time steps
	Work      int // T1
	Span      int // T∞
	HighSteps int // steps in which at least one High node executed
}

// Greedy executes the DAG on p processors with a greedy scheduler: at
// every step, if k nodes are ready, min(k, p) execute, chosen FIFO by the
// order they became ready and blind to priority class (any greedy choice
// satisfies Brent's bound).
func (d *DAG) Greedy(p int) Result {
	if p < 1 {
		panic("dagsim: Greedy requires p >= 1")
	}
	return d.run(func(ready []*Node, execute func(*Node)) {
		for i := 0; i < len(ready) && i < p; i++ {
			execute(ready[i])
		}
	})
}

// WeakPriority executes the DAG on p processors with the weak-priority
// scheduler of Section 7.2: at every step, min(k, p/2) ready nodes
// execute, and the High class gets min(k1, p/2) of its ready nodes
// executed first; remaining slots go to the earliest other ready nodes.
func (d *DAG) WeakPriority(p int) Result {
	if p < 2 {
		panic("dagsim: WeakPriority requires p >= 2")
	}
	half := p / 2
	return d.run(func(ready []*Node, execute func(*Node)) {
		k := 0
		for _, n := range ready {
			if k == half {
				return
			}
			if n.class == High {
				execute(n)
				k++
			}
		}
		for _, n := range ready {
			if k == half {
				return
			}
			if n.execStep == 0 {
				execute(n)
				k++
			}
		}
	})
}

// run drives the simulation: at each step the policy selects and executes
// nodes from the FIFO ready list until the DAG completes.
func (d *DAG) run(policy func(ready []*Node, execute func(*Node))) Result {
	var ready []*Node
	for _, n := range d.nodes {
		n.pending = n.npreds
		n.execStep = 0
		if n.npreds == 0 {
			ready = append(ready, n)
		}
	}
	executed := 0
	steps := 0
	highSteps := 0
	for executed < len(d.nodes) {
		steps++
		if steps > 2*len(d.nodes)+1 {
			panic(fmt.Sprintf("dagsim: no progress after %d steps (cycle?)", steps))
		}
		var enabled []*Node
		ranHigh := false
		execute := func(n *Node) {
			n.execStep = steps
			executed++
			if n.class == High {
				ranHigh = true
			}
			for _, s := range n.succs {
				s.pending--
				if s.pending == 0 {
					enabled = append(enabled, s)
				}
			}
		}
		policy(ready, execute)
		// Unexecuted ready nodes stay ahead of newly enabled ones (FIFO).
		still := ready[:0]
		for _, n := range ready {
			if n.execStep == 0 {
				still = append(still, n)
			}
		}
		ready = append(still, enabled...)
		if ranHigh {
			highSteps++
		}
	}
	return Result{Steps: steps, Work: d.Work(), Span: d.Span(), HighSteps: highSteps}
}

// CompletionOf returns the step at which the last node of the given class
// executed in the most recent run.
func (d *DAG) CompletionOf(class Class) int {
	last := 0
	for _, n := range d.nodes {
		if n.class == class && n.execStep > last {
			last = n.execStep
		}
	}
	return last
}
