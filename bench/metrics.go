package main

// A metricDef fixes one metric's name, unit and direction. End-to-end
// metrics also carry the bound a change may worsen them by; per-layer
// metrics carry which end-to-end metric they should move, and where (the
// interaction map, written down before anything was measured).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Doc    string

	// End-to-end only.
	Bound float64 // share of the reference median the metric may worsen by
	Floor float64 // absolute allowance when Bound × median is smaller (setup_s: 50 ms)
	Exact bool    // a pure function of (workload, seed, rounds): -compare wants bit-equality

	// Per-layer only.
	Moves string // end-to-end metric(s) the layer metric should move
	On    string // workload(s) where it should, most affected first
}

// endToEnd lists what a user of the simulator sees, measured with no
// observer and no audit hook installed. failed_share is printed beside
// them but is not listed here: it is 0 on every accepted run, which a
// relative bound cannot gate; the result's attempted/failed counts carry
// it instead. The round-time tail is a per-layer metric
// (sim.round_ms_tail): two invocations of one binary differ by more than
// a tenth on it, and a noisy metric is demoted, not given a wider bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05,
		Doc: "sim.New plus the two warm-up rounds at the reference speed; median of the run's repeated set-ups"},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median over the measured rounds of one round's wall-clock at the reference speed (scaled by the calibration kernel beside it)"},
	{Name: "tx_per_s", Unit: "tx/s", Better: "higher", Bound: 0.25,
		Doc: "mean committed transactions per round divided by round_ms_p50"},
	{Name: "tx_per_round", Unit: "tx", Better: "higher", Bound: 0.10, Exact: true,
		Doc: "mean RoundReport.Throughput()"},
	{Name: "sim_ticks_per_round", Unit: "ticks", Better: "lower", Bound: 0.10, Exact: true,
		Doc: "mean RoundReport.Duration, the paper's round latency under the injected delay"},
	{Name: "bytes_per_tx", Unit: "B", Better: "lower", Bound: 0.10, Exact: true,
		Doc: "sum of RoundReport.Bytes over committed transactions (Table II, amortised)"},
	{Name: "msgs_per_tx", Unit: "msgs", Better: "lower", Bound: 0.10, Exact: true,
		Doc: "sum of RoundReport.Messages over committed transactions"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Doc: "HeapAlloc after runtime.GC() at the end of the measured window (what the run retains)"},
}

var phases = []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}

// spanNames maps the network phase whose OnPhase callback opens a span to
// the span's name: the sequential stage order puts the CPU stages that
// follow a network phase inside the same span.
var spanNames = map[string]string{
	"config":     "config",
	"semicommit": "semicommit_pow",
	"intra":      "intra",
	"inter":      "inter",
	"score":      "score_assemble",
	"select":     "select_ledger",
	"block":      "block",
}

// spanOrder is the print order of the wall spans of a round.
var spanOrder = []string{"workload", "config", "semicommit_pow", "intra", "inter", "score_assemble", "select_ledger", "block", "other"}

var wireFamilies = []string{"cfg", "cons", "tx", "cert", "block", "ctl"}

// perLayer lists the metrics of single layers, all from the traced pass
// and the layer cells. Layer = package name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		p50   = "round_ms_p50"
		speed = "round_ms_p50, tx_per_s"
	)
	var out []metricDef
	add := func(name, unit, better, moves, on, doc string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves, On: on, Doc: doc})
	}

	spanOn := map[string]string{
		"workload":       "wide-cross",
		"config":         "big-committee, then steady-small",
		"semicommit_pow": "steady-small, small-faulted",
		"intra":          "wide-cross",
		"inter":          "wide-cross",
		"score_assemble": "wide-cross",
		"select_ledger":  "steady-small, wide-cross",
		"block":          "wide-cross",
		"other":          "none (iterator and observer overhead)",
	}
	for _, s := range spanOrder {
		add("protocol.span."+s+"_ms", "ms", "lower", p50, spanOn[s],
			"median wall time per round between the callbacks that bracket the "+s+" span")
	}
	for _, ph := range phases {
		add("protocol.ticks."+ph, "ticks", "lower", "sim_ticks_per_round", "small-faulted",
			"mean virtual time the "+ph+" phase spans per round")
	}
	for _, ph := range phases {
		add("protocol.bytes."+ph, "B", "lower", "bytes_per_tx", "steady-small (per-voter), wide-cross (aggregate)",
			"mean bytes sent in the "+ph+" phase per round")
	}
	add("protocol.recoveries_per_round", "count", "lower", "sim_ticks_per_round, round_ms_p50", "small-faulted", "mean leader evictions per round")
	add("protocol.timeouts_per_round", "count", "lower", "sim_ticks_per_round", "small-faulted", "mean phase-timeout verdicts per round")
	add("protocol.rejected_per_round", "count", "lower", "tx_per_round", "every workload", "mean offered transactions not committed per round")
	add("protocol.screened_per_round", "count", "lower", "bytes_per_tx", "none (pre-screening is off in every workload)", "mean cross-shard transactions dropped by pre-screening per round")
	add("protocol.recovery_tick_penalty", "ticks", "lower", "sim_ticks_per_round", "small-faulted", "sim_ticks_per_round minus the baseline workload's; 0 on workloads without a baseline")

	add("committee.config_ns_per_committee", "ns", "lower", speed, "big-committee, then steady-small", "Algorithm 2 for one committee of the workload's c and lambda over a bare simnet")
	add("committee.config_allocs_per_committee", "count", "lower", "heap_live_mb", "big-committee", "allocations of that run")
	add("committee.sortition_ns", "ns", "lower", p50, "big-committee", "one committee.Sortition (Algorithm 1)")
	add("committee.cfg_records_per_round", "count", "lower", speed, "big-committee", "member records with a proof presented for verification per round, counted from audited CFG_* payloads")
	add("committee.cfg_unique_share", "ratio", "higher", speed, "big-committee, then steady-small", "distinct (pk, input, proof) triples over records presented: the useful share of verification attempts")

	add("crypto.vrf_verify_ns", "ns", "lower", speed, "big-committee, then steady-small", "one crypto.VRFVerify")
	add("crypto.vrf_prove_ns", "ns", "lower", p50, "steady-small", "one crypto.VRFProve")

	add("pow.solve_ns_per_node", "ns", "lower", p50, "steady-small, small-faulted", "one pow.Solve at the workload's hardness")
	add("pow.attempts_per_solve", "count", "lower", p50, "steady-small", "mean nonces tried per solve")
	add("pow.verify_ns", "ns", "lower", p50, "steady-small", "one pow.Verify")
	add("pow.est_ms_per_round", "ms", "lower", p50, "steady-small, small-faulted", "solve_ns_per_node times the population n")

	add("pvss.beacon_ns", "ns", "lower", p50, "steady-small, wide-cross", "one pvss.RunBeacon at the workload's referee size")
	add("pvss.beacon_allocs", "count", "lower", "heap_live_mb", "steady-small", "allocations of one RunBeacon")
	add("pvss.deal_ns", "ns", "lower", p50, "steady-small", "one pvss.NewDeal")
	add("pvss.verify_share_ns", "ns", "lower", p50, "steady-small", "one Deal.VerifyShare")

	add("consensus.instance_ns", "ns", "lower", p50, "wide-cross", "one Algorithm 3 instance at committee size c, HashScheme, bare simnet")
	add("consensus.instance_allocs", "count", "lower", "round_ms_p50, heap_live_mb", "wide-cross", "allocations of one instance")
	add("consensus.instance_msgs", "count", "lower", "msgs_per_tx", "wide-cross", "messages of one instance")
	add("consensus.instances_per_round", "count", "lower", "msgs_per_tx, round_ms_p50", "wide-cross", "distinct audited CONS_PROPOSE instances per round")
	add("consensus.verify_cert_ns", "ns", "lower", p50, "steady-small", "one VerifyCert of a per-voter certificate at size c")
	add("consensus.aggregate_ns", "ns", "lower", p50, "wide-cross", "one AggregateResult at size c")
	add("consensus.verify_aggcert_ns", "ns", "lower", p50, "wide-cross", "one VerifyAggCert at size c")

	add("ledger.validate_ns_per_tx", "ns", "lower", p50, "wide-cross", "ledger.Validate over the run's committed transactions replayed from genesis")
	add("ledger.apply_ns_per_tx", "ns", "lower", p50, "wide-cross", "Store.ApplyTx over the same replay")
	add("ledger.prepare_commit_ns_per_tx", "ns", "lower", p50, "wide-cross", "PrepareTx+Commit of the replay's cross-shard transactions")
	add("ledger.contended_apply_ns_per_tx", "ns", "lower", p50, "wide-cross", "ApplyTx wall time per transaction with two goroutines applying disjoint halves of each block")
	add("ledger.utxo_len", "count", "lower", "heap_live_mb", "wide-cross", "unspent outputs after the replay")
	add("workload.next_batch_ns_per_tx", "ns", "lower", "round_ms_p50, tx_per_round", "wide-cross", "Generator.NextBatch per generated transaction at the workload's shape")
	add("chain.append_ns_per_block", "ns", "lower", p50, "wide-cross", "Chain.Append of the run's blocks into a fresh chain")
	add("chain.verify_ns_per_block", "ns", "lower", "setup_s", "none (verification is an output check)", "Chain.Verify from genesis per block")
	add("reputation.score_all_ns", "ns", "lower", p50, "wide-cross", "reputation.ScoreAll for one committee's vote list")

	for _, f := range wireFamilies {
		add("wire.encode_ns_per_msg."+f, "ns", "lower", speed, "small-live only", "wire.AppendEncode per audited "+f+" message")
	}
	for _, f := range wireFamilies {
		add("wire.decode_ns_per_msg."+f, "ns", "lower", speed, "small-live only", "wire.Decode per audited "+f+" message")
	}
	for _, f := range wireFamilies {
		on := "steady-small, small-live"
		if f == "cert" {
			on = "steady-small (per-voter), wide-cross (aggregate)"
		}
		add("wire.bytes_per_msg."+f, "B", "lower", "bytes_per_tx", on, "mean declared size of audited "+f+" messages")
	}
	add("wire.encode_ms_per_round", "ms", "lower", speed, "small-live only", "messages per round times encode cost, summed over families")
	add("wire.decode_ms_per_round", "ms", "lower", speed, "small-live only", "messages per round times decode cost, summed over families")

	add("simnet.msgs_per_round", "count", "lower", "msgs_per_tx, round_ms_p50", "wide-cross", "mean RoundReport.Messages")
	add("simnet.bytes_per_round", "B", "lower", "bytes_per_tx", "big-committee", "mean RoundReport.Bytes")
	add("simnet.dropped_per_round", "count", "lower", "sim_ticks_per_round", "small-faulted", "mean RoundReport.Dropped")
	add("simnet.late_per_round", "count", "lower", "sim_ticks_per_round", "none (no workload injects lag)", "mean RoundReport.Late")
	add("simnet.deliver_ns_per_msg", "ns", "lower", p50, "wide-cross", "committee-shaped traffic with no-op handlers on the fault-free executor")
	add("simnet.allocs_per_msg", "count", "lower", p50, "wide-cross", "allocations per delivered message of that replay")
	add("simnet.deliver_faulted_ns_per_msg", "ns", "lower", p50, "small-faulted", "the same traffic with a loss model installed: the buffered executor")

	add("transport.live_overhead_ms_per_round", "ms", "lower", speed, "small-live only", "round_ms_p50 minus the simulator baseline's; 0 on workloads without a parity baseline")
	add("transport.live_overhead_ns_per_msg", "ns", "lower", speed, "small-live only", "that difference per message of a round")

	add("host.kernel_ms", "ms", "lower", "none", "none (the host's speed, not the program's: the reference host runs it in 1.05 ms when quiet)", "median time of the calibration kernel around the untraced rounds")
	add("sim.new_ms", "ms", "lower", "setup_s", "big-committee", "sim.New alone")
	add("sim.round_ms_tail", "ms", "lower", "none", "none (demoted from the end-to-end set: its run-to-run spread on the sandbox exceeds a tenth)", "highest of p75/p90/p95/p99 of the untraced rounds' time with at least ten samples beyond it; p75 where fewer than 40 rounds fit")
	add("runtime.allocs_per_round", "count", "lower", "round_ms_p50, heap_live_mb", "wide-cross", "heap allocations per measured round of the untraced reference run")
	add("runtime.alloc_mb_per_round", "MB", "lower", p50, "big-committee", "bytes allocated per measured round")
	add("runtime.gc_pause_ms_per_round", "ms", "lower", "round_ms_tail", "big-committee", "stop-the-world pause per measured round")
	add("runtime.gc_cycles_per_round", "count", "lower", "round_ms_tail", "big-committee", "GC cycles per measured round")
	add("trace.overhead_share", "ratio", "lower", "none", "none (tracing is off when end-to-end metrics are measured)", "traced over untraced round_ms_p50, minus one")
	return out
}
