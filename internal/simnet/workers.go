package simnet

import (
	"runtime"
	"sync"
)

// One process-wide pool of persistent workers serves every Network: a step
// whose batch spans more than one lane submits one task per active lane and
// waits at the execution barrier, rather than starting a goroutine per lane
// per tick. Sharing one pool across Networks (sweeps create thousands of
// them) means no per-Network goroutines to leak and no finalizer
// bookkeeping; a task holds its Network only while its lane executes.
//
// Determinism is unaffected by the worker count: a lane runs the events of
// the nodes it owns (node mod lanes) and writes only lane-owned state, and
// everything whose order matters — numbering the batch, and applying its
// effects — runs on the driving goroutine, before and after the barrier.
// Workers never submit tasks, so pool starvation cannot deadlock.
type laneTask struct {
	net  *Network
	lane *lane
	wg   *sync.WaitGroup
}

// dispatch runs the active lanes — active of them hold batch positions —
// on the pool and waits for the barrier.
func (n *Network) dispatch(active int) {
	n.stepWG.Add(active)
	for _, ln := range n.lanes {
		if len(ln.pos) > 0 {
			submitLane(laneTask{net: n, lane: ln, wg: &n.stepWG})
		}
	}
	n.stepWG.Wait()
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
				t.net.execLane(t.lane)
				t.wg.Done()
			}
		}()
	}
}
