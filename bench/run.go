package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cycledger/sim"
)

// setUp builds the workload's simulation from its generated config
// document and runs the warm-up rounds; the traced pass hands in its
// tracer, which observes from the first round on. It returns how long
// sim.New took (ms) and the whole set-up (s), both at the reference speed
// (calib.go). A non-nil simulation is returned even when the warm-up
// fails, so the caller can close it.
func setUp(w workload, seed int64, tr *tracer) (s *sim.Sim, newMs, setupS float64, err error) {
	doc, err := w.configJSON(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	opts := []sim.Option{sim.FromJSON(doc)}
	if tr != nil {
		opts = append(opts, sim.WithObserver(tr))
	}
	before := calibrate()
	start := time.Now()
	if s, err = sim.New(opts...); err != nil {
		return nil, 0, 0, fmt.Errorf("%s: building simulation: %w", w.Name, err)
	}
	newMs = ms(time.Since(start))
	if tr != nil {
		tr.attach(s)
	}
	err = runRounds(s, warmupRounds, nil, nil)
	setupS = time.Since(start).Seconds()
	after := calibrate()
	return s, atRefSpeed(newMs, before, after), atRefSpeed(setupS, before, after), err
}

// runRounds drives n rounds through the facade's iterator, one client in
// a closed loop: round r+1 starts when r has returned. begin runs before
// each round and each after it with the round's wall time; both are
// outside the timed interval.
func runRounds(s *sim.Sim, n int, begin func(), each func(rep *sim.RoundReport, d time.Duration)) error {
	if n <= 0 {
		return nil
	}
	done := 0
	if begin != nil {
		begin()
	}
	start := time.Now()
	for rep, err := range s.Rounds(context.Background()) {
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("round %d: %w", len(s.Reports())+1, err)
		}
		if each != nil {
			each(rep, d)
		}
		if done++; done == n {
			return nil
		}
		if begin != nil {
			begin()
		}
		start = time.Now()
	}
	return fmt.Errorf("run ended after %d of %d rounds", done, n)
}

// memDelta is what the Go runtime did over a measured window.
type memDelta struct {
	Mallocs    uint64
	AllocBytes uint64
	PauseNs    uint64
	GCCycles   uint32
}

// runResult is one untraced (or traced) pass over a workload.
type runResult struct {
	Workload string
	Cfg      sim.Config

	SetupS  []float64 // every repeated set-up
	NewMs   []float64
	RoundMs []float64          // time of each measured round at the reference speed
	Kernel  []float64          // calibration kernel (ms) before the first measured round and after each
	Reports []*sim.RoundReport // measured rounds only
	Digests [][sha256.Size]byte
	Mem     memDelta
	HeapMB  float64

	Attempted int
	Failed    int
	Checks    []check
}

// check is one output check's outcome.
type check struct {
	Name string
	Err  error
}

func (r *runResult) ok() bool {
	for _, c := range r.Checks {
		if c.Err != nil {
			return false
		}
	}
	return r.Failed == 0
}

func (r *runResult) check(name string, err error) {
	r.Checks = append(r.Checks, check{Name: name, Err: err})
}

// runOpts sizes one pass.
type runOpts struct {
	rounds int // measured rounds
	setups int // how often set-up is repeated; the last one is measured on
}

// run executes one pass over a workload. With tr == nil this is the
// end-to-end pass: no observer, no audit hook. The returned simulation is
// still open (the layer cells replay its chain); the caller closes it.
func run(w workload, seed int64, o runOpts, tr *tracer) (*runResult, *sim.Sim, error) {
	res := &runResult{Workload: w.Name, Attempted: o.rounds}
	var s *sim.Sim
	for i := 0; i < max(o.setups, 1); i++ {
		if s != nil {
			if err := s.Close(); err != nil {
				return nil, nil, err
			}
		}
		var newMs, setupS float64
		var err error
		if s, newMs, setupS, err = setUp(w, seed, tr); s == nil {
			return nil, nil, err
		} else if err != nil {
			res.Failed = o.rounds
			res.check("rounds", err)
			return res, s, nil
		}
		res.SetupS = append(res.SetupS, setupS)
		res.NewMs = append(res.NewMs, newMs)
	}
	res.Cfg = s.Config()

	var begin func()
	if tr != nil {
		tr.start(w.Name)
		begin = tr.beginRound
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.Kernel = append(res.Kernel, calibrate())
	err := runRounds(s, o.rounds, begin, func(rep *sim.RoundReport, d time.Duration) {
		k := calibrate()
		res.RoundMs = append(res.RoundMs, atRefSpeed(ms(d), res.Kernel[len(res.Kernel)-1], k))
		res.Kernel = append(res.Kernel, k)
		res.Reports = append(res.Reports, rep)
		if tr != nil {
			tr.endRound(d)
		}
	})
	runtime.ReadMemStats(&after)
	if tr != nil {
		tr.stop()
	}
	res.Mem = memDelta{
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		PauseNs:    after.PauseTotalNs - before.PauseTotalNs,
		GCCycles:   after.NumGC - before.NumGC,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.HeapMB = float64(after.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(s)

	res.Failed = o.rounds - len(res.Reports)
	res.check("rounds", err)
	for _, rep := range s.Reports() {
		doc, err := json.Marshal(rep)
		if err != nil {
			return nil, nil, err
		}
		res.Digests = append(res.Digests, sha256.Sum256(doc))
	}
	checkOutputs(res, s)
	return res, s, nil
}

// checkOutputs runs the output checks that need only this run: the chain
// holds every round and replays from genesis, value is conserved, the
// workload did not starve, and a fault model left its mark.
func checkOutputs(res *runResult, s *sim.Sim) {
	want := warmupRounds + len(res.Reports)
	var err error
	if got := s.Chain().Len(); got != want {
		err = fmt.Errorf("chain holds %d blocks, want %d", got, want)
	}
	res.check("chain-length", err)

	genesis, err := s.Engine().GenesisUTXO()
	if err != nil {
		res.check("chain-replay", err)
		return
	}
	res.check("chain-replay", s.Chain().Verify(genesis))

	var fees uint64
	for _, rep := range s.Reports() {
		fees += rep.Fees
	}
	err = nil
	if got, want := s.UTXO().TotalValue()+fees, genesis.TotalValue(); got != want {
		err = fmt.Errorf("unspent value plus fees is %d, genesis minted %d", got, want)
	}
	res.check("value-conservation", err)
	res.check("steady-state", steadyState(res.Reports))

	if res.Cfg.Faults != nil {
		var recoveries int
		var dropped uint64
		for _, rep := range res.Reports {
			recoveries += len(rep.Recoveries)
			dropped += rep.Dropped
		}
		err = nil
		if recoveries == 0 || dropped == 0 {
			err = fmt.Errorf("fault model left no mark: %d recoveries, %d dropped messages", recoveries, dropped)
		}
		res.check("faults-bite", err)
	}
}

// steadyState fails when throughput collapses over the window: the last
// third of the rounds must commit at least 0.7 of what the first third
// did, and something at all. A generator that runs out of spendable
// outputs shows here instead of as a silently cheaper round.
func steadyState(reports []*sim.RoundReport) error {
	n := len(reports)
	if n == 0 {
		return errors.New("no measured rounds")
	}
	third := max(n/3, 1)
	var first, last int
	for i := 0; i < third; i++ {
		first += reports[i].Throughput()
		last += reports[n-1-i].Throughput()
	}
	if last == 0 {
		return errors.New("last third of the rounds committed nothing")
	}
	if float64(last) < 0.7*float64(first) {
		return fmt.Errorf("throughput fell from %d to %d tx between the first and last third", first, last)
	}
	return nil
}

// sameReports checks that two runs produced identical round reports over
// the rounds both ran.
func sameReports(a, b *runResult) error {
	n := min(len(a.Digests), len(b.Digests))
	if n == 0 {
		return errors.New("no common rounds")
	}
	for i := 0; i < n; i++ {
		if a.Digests[i] != b.Digests[i] {
			return fmt.Errorf("round %d report differs between %s and %s", i+1, a.Workload, b.Workload)
		}
	}
	return nil
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(r *runResult) map[string]float64 {
	var tx int
	var ticks, bytes, msgs float64
	for _, rep := range r.Reports {
		tx += rep.Throughput()
		ticks += float64(rep.Duration)
		bytes += float64(rep.Bytes)
		msgs += float64(rep.Messages)
	}
	n := float64(len(r.Reports))
	p50 := median(r.RoundMs)
	v := map[string]float64{
		"setup_s":      median(r.SetupS),
		"round_ms_p50": p50,
		"heap_live_mb": r.HeapMB,
	}
	if n > 0 {
		v["tx_per_round"] = float64(tx) / n
		v["sim_ticks_per_round"] = ticks / n
	}
	// Throughput at the median round, not over the summed time: a few
	// disturbed rounds stretch the sum but not the median.
	if p50 > 0 && n > 0 {
		v["tx_per_s"] = float64(tx) / n / (p50 / 1000)
	}
	if tx > 0 {
		v["bytes_per_tx"] = bytes / float64(tx)
		v["msgs_per_tx"] = msgs / float64(tx)
	}
	return v
}

// tailOf returns the percentile round_ms_tail reports for n samples and
// whether at least ten samples lie beyond it. Below 40 rounds the p75 is
// still reported, flagged as unsupported.
func tailOf(n int) (p float64, supported bool) {
	if p, ok := tailFor(n); ok {
		return p, true
	}
	return tailPercentiles[0], false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
