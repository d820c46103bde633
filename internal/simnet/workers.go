package simnet

import (
	"runtime"
	"sync"
)

// The simulator used to spawn a goroutine per node group on every step.
// At 10× paper scale that is tens of thousands of goroutine launches per
// tick. Instead, a single process-wide pool of persistent workers serves
// every Network: a macro-step publishes its batch state, submits one task
// per participating lane and phase (pop, execute), and waits.
// Sharing one pool across Networks (sweeps create thousands of them)
// means no per-Network goroutines to leak and no finalizer bookkeeping; a
// task holds its Network only for the duration of one lane phase.
//
// Determinism is unaffected by the worker count: lane assignment is a
// pure function of NodeID and the Network's parallelism (see laneFor),
// each lane phase touches only lane-owned state, and the orders that
// matter — batch renumbering and the held-send drain — run on the
// single-threaded barriers between phases. Workers never submit
// tasks, so pool starvation cannot deadlock.
type laneTask struct {
	net   *Network
	lane  int
	phase int
	wg    *sync.WaitGroup
}

// Macro-step phases a pool worker can run for one lane.
const (
	phasePop = iota
	phaseExec
)

// wants reports whether a lane participates in the given phase of the
// current macro-step. Kept a method (not a closure) so dispatch stays
// allocation-free on the steady-state path.
func (n *Network) wants(phase int, ln *lane) bool {
	if phase == phasePop {
		return ln.hasNext && ln.nextAt == n.now
	}
	return len(ln.batch) > 0
}

// dispatch fans one phase out across the participating lanes and waits
// for the barrier.
func (n *Network) dispatch(phase int) {
	cnt := 0
	for _, ln := range n.lanes {
		if n.wants(phase, ln) {
			cnt++
		}
	}
	if cnt == 0 {
		return
	}
	n.stepWG.Add(cnt)
	for i, ln := range n.lanes {
		if n.wants(phase, ln) {
			submitLane(laneTask{net: n, lane: i, phase: phase, wg: &n.stepWG})
		}
	}
	n.stepWG.Wait()
}

// runPhase executes one lane's share of a phase on a pool worker.
func (n *Network) runPhase(phase, lane int) {
	ln := n.lanes[lane]
	if phase == phasePop {
		n.popLane(ln)
	} else {
		n.execLane(ln)
	}
}

var (
	poolOnce  sync.Once
	poolTasks chan laneTask
)

func submitLane(t laneTask) {
	poolOnce.Do(startPool)
	poolTasks <- t
}

func startPool() {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	poolTasks = make(chan laneTask, 4*w)
	for i := 0; i < w; i++ {
		go func() {
			for t := range poolTasks {
				t.net.runPhase(t.phase, t.lane)
				t.wg.Done()
			}
		}()
	}
}
