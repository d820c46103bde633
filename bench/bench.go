package main

import (
	"errors"
	"fmt"
	"math"
)

// bench is one invocation: a seed, a window, the trace log, and the
// untraced runs made so far (a workload's baseline is reused, not rerun).
type bench struct {
	seed    int64
	seconds float64
	log     *traceLog
	// rounds overrides every workload's round count when positive (tests).
	rounds int
	// fullParity checks a workload against every round of its parity
	// baseline instead of the first oracleRounds: set when the traced pass
	// follows, which needs the baseline's full run anyway.
	fullParity bool
	untraced   map[string]*runResult
}

func newBench(seed int64, seconds float64) *bench {
	return &bench{seed: seed, seconds: seconds, log: newTraceLog(), untraced: make(map[string]*runResult)}
}

func (b *bench) roundsFor(w workload) int {
	if b.rounds > 0 {
		return b.rounds
	}
	return w.roundsFor(b.seconds)
}

// oracleRounds is how many rounds of its parity baseline a workload is
// checked against when only end-to-end metrics are asked for: enough to
// catch a diverging transport without paying for a second full run.
const oracleRounds = 4

// workloadResult is everything one workload produced in an invocation.
type workloadResult struct {
	W        workload
	Untraced *runResult
	Traced   *runResult // nil unless the traced pass ran
	EndToEnd map[string]float64
	Layers   map[string]float64 // nil unless the traced pass ran
	Checks   []check
}

func (r *workloadResult) ok() bool {
	for _, c := range r.Checks {
		if c.Err != nil {
			return false
		}
	}
	return r.Untraced.Failed == 0 && (r.Traced == nil || r.Traced.Failed == 0)
}

// failed is how many of the attempted rounds count as failed: the rounds
// that errored, or all of them when any output check failed — a run
// whose outputs are wrong measured nothing.
func (r *workloadResult) failed() int {
	if r.ok() {
		return 0
	}
	return r.Untraced.Attempted
}

// runUntraced makes (or reuses) the end-to-end pass over a workload with
// at least the given number of measured rounds.
func (b *bench) runUntraced(w workload, rounds, setups int) (*runResult, error) {
	if r, ok := b.untraced[w.Name]; ok && len(r.Reports) >= rounds {
		return r, nil
	}
	res, s, err := run(w, b.seed, runOpts{rounds: rounds, setups: setups}, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	b.untraced[w.Name] = res
	return res, nil
}

// baseline runs the workload's baseline for the given number of rounds.
func (b *bench) baseline(w workload, rounds int) (*runResult, error) {
	base, ok := findWorkload(w.Baseline)
	if !ok {
		return nil, fmt.Errorf("%s: unknown baseline %q", w.Name, w.Baseline)
	}
	return b.runUntraced(base, rounds, 1)
}

// endToEnd measures a workload with tracing, audit and observers off.
func (b *bench) endToEnd(w workload, setups int) (*workloadResult, error) {
	res, err := b.runUntraced(w, b.roundsFor(w), setups)
	if err != nil {
		return nil, err
	}
	out := &workloadResult{W: w, Untraced: res, EndToEnd: endToEndValues(res), Checks: res.Checks}
	if w.Parity && res.ok() {
		rounds := len(res.Reports)
		if !b.fullParity {
			rounds = min(oracleRounds, rounds)
		}
		base, err := b.baseline(w, rounds)
		if err != nil {
			return nil, err
		}
		out.Checks = append(out.Checks, check{Name: "parity-with-" + w.Baseline, Err: sameReports(res, base)})
	}
	return out, nil
}

// traced reruns the workload for half its rounds with an observer and the
// send audit installed, runs the layer cells, and fills in the per-layer
// metrics. r must come from endToEnd.
func (b *bench) traced(r *workloadResult) (err error) {
	w, untraced := r.W, r.Untraced
	if !untraced.ok() {
		return nil // nothing to attribute: the failed checks are already reported
	}
	tr := newTracer(b.log, b.seed)
	rounds := (len(untraced.Reports) + 1) / 2
	traced, s, err := run(w, b.seed, runOpts{rounds: rounds, setups: 1}, tr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	r.Traced = traced
	r.Checks = append(r.Checks, prefixed("traced:", traced.Checks)...)
	if !traced.ok() {
		return nil
	}
	// The audited run takes the simnet's buffered executor; the reports
	// must not notice.
	r.Checks = append(r.Checks, check{Name: "traced-equals-untraced", Err: sameReports(traced, untraced)})
	if tr.encodeErrs > 0 {
		r.Checks = append(r.Checks, check{Name: "audit-encodes", Err: fmt.Errorf("%d audited payloads did not encode", tr.encodeErrs)})
	}

	var base *runResult
	if w.Baseline != "" {
		if base, err = b.baseline(w, len(untraced.Reports)); err != nil {
			return err
		}
	}
	cellValues, err := runCells(b.seed, tr, s)
	if err != nil {
		r.Checks = append(r.Checks, check{Name: "layer-cells", Err: err})
		return nil
	}
	r.Layers = layerValues(w, untraced, traced, base, tr, cellValues)
	r.Checks = append(r.Checks, check{Name: "spans-cover-round", Err: spansCoverRound(tr)})
	return nil
}

func prefixed(prefix string, cs []check) []check {
	out := make([]check, len(cs))
	for i, c := range cs {
		out[i] = check{Name: prefix + c.Name, Err: c.Err}
	}
	return out
}

// spansCoverRound checks the attribution is complete: the spans named
// after phases cover the traced rounds' wall time to within 5%, so the
// unattributed remainder ("other") stays a rounding term.
func spansCoverRound(tr *tracer) error {
	var other, wall float64
	for _, rt := range tr.rounds {
		if len(rt.spansMs) == 0 {
			return errors.New("a traced round saw no phase callback")
		}
		other += rt.spansMs["other"]
		wall += rt.wallMs
	}
	if wall == 0 || math.Abs(other)/wall > 0.05 {
		return fmt.Errorf("%.1f ms of %.1f ms traced lie outside every named span", other, wall)
	}
	return nil
}

// layerValues assembles the per-layer metrics from the traced pass, the
// untraced reference, the baseline (nil without one) and the cells.
func layerValues(w workload, untraced, traced, base *runResult, tr *tracer, cellValues map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0 // every metric is reported on every workload
	}
	for k, x := range cellValues {
		v[k] = x
	}

	rounds := float64(len(tr.rounds))
	for _, name := range spanOrder {
		// A span is scaled as its round was: to the reference speed.
		samples := make([]float64, len(tr.rounds))
		for i, rt := range tr.rounds {
			samples[i] = rt.spansMs[name] * traced.RoundMs[i] / rt.wallMs
		}
		v["protocol.span."+name+"_ms"] = median(samples)
	}
	for _, ph := range phases {
		var ticks, bytes float64
		for _, rt := range tr.rounds {
			ticks += rt.ticks[ph]
		}
		for _, rep := range traced.Reports {
			bytes += float64(rep.PhaseTraffic[ph].Bytes)
		}
		v["protocol.ticks."+ph] = ticks / rounds
		v["protocol.bytes."+ph] = bytes / rounds
	}
	for _, rep := range traced.Reports {
		v["protocol.recoveries_per_round"] += float64(len(rep.Recoveries)) / rounds
		v["protocol.timeouts_per_round"] += float64(len(rep.Timeouts)) / rounds
		v["protocol.rejected_per_round"] += float64(rep.Rejected) / rounds
		v["protocol.screened_per_round"] += float64(rep.Screened) / rounds
		v["simnet.msgs_per_round"] += float64(rep.Messages) / rounds
		v["simnet.bytes_per_round"] += float64(rep.Bytes) / rounds
		v["simnet.dropped_per_round"] += float64(rep.Dropped) / rounds
		v["simnet.late_per_round"] += float64(rep.Late) / rounds
	}

	v["committee.cfg_records_per_round"] = float64(tr.cfgRecords) / rounds
	if tr.cfgRecords > 0 {
		v["committee.cfg_unique_share"] = float64(len(tr.cfgUnique)) / float64(tr.cfgRecords)
	}
	v["consensus.instances_per_round"] = float64(len(tr.proposals)) / rounds

	n := float64(len(untraced.Reports))
	v["host.kernel_ms"] = median(untraced.Kernel)
	v["sim.new_ms"] = median(untraced.NewMs)
	p, _ := tailOf(len(untraced.RoundMs))
	v["sim.round_ms_tail"] = percentile(untraced.RoundMs, p)
	v["runtime.allocs_per_round"] = float64(untraced.Mem.Mallocs) / n
	v["runtime.alloc_mb_per_round"] = float64(untraced.Mem.AllocBytes) / (1 << 20) / n
	v["runtime.gc_pause_ms_per_round"] = float64(untraced.Mem.PauseNs) / 1e6 / n
	v["runtime.gc_cycles_per_round"] = float64(untraced.Mem.GCCycles) / n
	// Round cost drifts as the workload fills, so the traced rounds are
	// compared with the same rounds of the untraced run.
	if ref := median(untraced.RoundMs[:len(traced.RoundMs)]); ref > 0 {
		v["trace.overhead_share"] = median(traced.RoundMs)/ref - 1
	}

	if base != nil {
		common := min(len(untraced.Reports), len(base.Reports))
		if w.Parity {
			over := median(untraced.RoundMs[:common]) - median(base.RoundMs[:common])
			v["transport.live_overhead_ms_per_round"] = over
			if msgs := v["simnet.msgs_per_round"]; msgs > 0 {
				v["transport.live_overhead_ns_per_msg"] = over * 1e6 / msgs
			}
		} else {
			var own, ref float64
			for i := 0; i < common; i++ {
				own += float64(untraced.Reports[i].Duration)
				ref += float64(base.Reports[i].Duration)
			}
			v["protocol.recovery_tick_penalty"] = (own - ref) / float64(common)
		}
	}
	return v
}
