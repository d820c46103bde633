// Package cycledger_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation (see EXPERIMENTS.md for
// the experiment ↔ bench index):
//
//	Table I  → BenchmarkTable1FailProb
//	Table II → BenchmarkTable2Complexity
//	Fig. 4   → BenchmarkFig4RewardMap
//	Fig. 5   → BenchmarkFig5CommitteeFailure
//	§V-C     → BenchmarkPartialSetSecurity
//	§III-D   → BenchmarkScalabilityThroughput
//	Table I "dishonest leaders" row → BenchmarkLeaderFaultRecovery
//	§VII     → BenchmarkReputationConvergence
//	DESIGN.md ablation → BenchmarkAblationParallelCommittees
//
// These are plain go test -bench functions: nothing records or gates their
// output. The performance contract is BENCHMARK.json, driven by bench/.
//
// Benches report their headline quantities via b.ReportMetric, so
// `go test -bench . -benchmem` prints the reproduced numbers alongside
// timing.
package cycledger_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"cycledger/internal/analysis"
	"cycledger/internal/baseline"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// BenchmarkTable1FailProb regenerates Table I's failure-probability column
// at the paper's parameters (m=20, c=100, λ=40) for all four protocols.
func BenchmarkTable1FailProb(b *testing.B) {
	rows := baseline.TableI()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			sink += row.FailProb(20, 100, 40)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.FailProb(20, 100, 40), "fail_"+row.Name)
	}
	_ = sink
}

// BenchmarkTable2Complexity runs one full protocol round and reports the
// per-role traffic that reproduces Table II's communication rows.
func BenchmarkTable2Complexity(b *testing.B) {
	p := protocol.DefaultParams()
	p.Rounds = 1
	var last *protocol.RoundReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		e, err := protocol.NewEngine(p)
		if err != nil {
			b.Fatal(err)
		}
		reports, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = reports[0]
	}
	b.StopTimer()
	for _, phase := range []string{"config", "semicommit", "intra", "inter", "block"} {
		for role, c := range last.RoleTraffic[phase] {
			b.ReportMetric(float64(c.Messages), fmt.Sprintf("msgs_%s_%s", phase, role))
		}
	}
}

// BenchmarkFig4RewardMap evaluates g(x) across Fig. 4's domain and reports
// the anchor values.
func BenchmarkFig4RewardMap(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for x := -5.0; x <= 20; x += 0.01 {
			sink += reputation.G(x)
		}
	}
	b.ReportMetric(reputation.G(0), "g(0)")
	b.ReportMetric(reputation.G(-5), "g(-5)")
	b.ReportMetric(reputation.G(20), "g(20)")
	_ = sink
}

// BenchmarkFig5CommitteeFailure computes the exact hypergeometric failure
// curve of Fig. 5 (population 2000, 666 malicious) and reports the paper's
// spot values.
func BenchmarkFig5CommitteeFailure(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for c := int64(40); c <= 240; c += 40 {
			sink += analysis.RatFloat(analysis.CommitteeFailureProb(2000, 666, c))
		}
	}
	exact := analysis.RatFloat(analysis.CommitteeFailureProb(2000, 666, 240))
	b.ReportMetric(exact, "exact_c240")
	b.ReportMetric(analysis.SimplifiedTailBound(240), "paper_bound_c240")
	b.ReportMetric(analysis.RatFloat(analysis.UnionBound(20, analysis.CommitteeFailureProb(2000, 666, 240))), "union_m20")
	_ = sink
}

// BenchmarkPartialSetSecurity reproduces §V-C: (1/3)^λ over λ and the
// union bound at m=20.
func BenchmarkPartialSetSecurity(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for lam := int64(10); lam <= 60; lam += 10 {
			sink += analysis.RatLog10(analysis.PartialSetFailureProb(lam))
		}
	}
	b.ReportMetric(analysis.RatLog10(analysis.PartialSetFailureProb(40)), "log10_lam40")
	b.ReportMetric(analysis.RatLog10(analysis.UnionBound(20, analysis.PartialSetFailureProb(40))), "log10_union20")
	_ = sink
}

// BenchmarkScalabilityThroughput sweeps the committee count m at fixed c
// and reports included transactions per round — the paper's Scalability
// property (|TX| grows quasi-linearly with n).
func BenchmarkScalabilityThroughput(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p := protocol.DefaultParams()
			p.M = m
			p.Rounds = 1
			var tput int
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				e, err := protocol.NewEngine(p)
				if err != nil {
					b.Fatal(err)
				}
				reports, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				tput = reports[0].Throughput()
			}
			b.ReportMetric(float64(tput), "tx/round")
			b.ReportMetric(float64(p.TotalNodes()), "nodes")
		})
	}
}

// BenchmarkLeaderFaultRecovery compares cross-shard inclusion with all
// leaders concealing cross-shard lists, recovery on vs off — the Table I
// row "High Efficiency w.r.t Dishonest Leaders".
func BenchmarkLeaderFaultRecovery(b *testing.B) {
	base := protocol.DefaultParams()
	base.Rounds = 1
	base.CrossFrac = 0.6
	base.MaliciousFrac = float64(base.M) / float64(base.TotalNodes())
	base.CorruptLeaders = true
	base.ByzantineBehavior = protocol.Behavior{ConcealCross: true}

	for _, mode := range []struct {
		name    string
		disable bool
	}{{"recovery_on", false}, {"recovery_off", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			p := base
			p.DisableRecovery = mode.disable
			var cross int
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				e, err := protocol.NewEngine(p)
				if err != nil {
					b.Fatal(err)
				}
				reports, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				cross = reports[0].CrossIncluded
			}
			b.ReportMetric(float64(cross), "cross_tx")
		})
	}
}

// BenchmarkReputationConvergence runs rounds with a byzantine voter
// minority and reports the reputation separation between the honest and
// byzantine populations (§VII).
func BenchmarkReputationConvergence(b *testing.B) {
	p := protocol.DefaultParams()
	p.Rounds = 3
	p.MaliciousFrac = 0.2
	p.ByzantineBehavior = protocol.Behavior{Vote: protocol.VoteInvert}
	var gap float64
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		e, err := protocol.NewEngine(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		var hSum, bSum float64
		var hN, bN int
		for id := 0; id < p.TotalNodes(); id++ {
			nid := simnet.NodeID(id)
			rep := e.Reputation().Get(e.NameOf(nid))
			if e.IsByzantine(nid) {
				bSum += rep
				bN++
			} else {
				hSum += rep
				hN++
			}
		}
		gap = hSum/float64(hN) - bSum/float64(bN)
	}
	b.ReportMetric(gap, "rep_gap")
}

// BenchmarkAblationParallelCommittees measures the simnet worker-pool
// ablation from DESIGN.md: same round at parallelism 1 vs 4.
func BenchmarkAblationParallelCommittees(b *testing.B) {
	for _, par := range []int{1, 4} {
		par := par
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			p := protocol.DefaultParams()
			p.M = 8
			p.Rounds = 1
			p.Parallelism = par
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				e, err := protocol.NewEngine(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPreScreen measures the §VIII-A extension under a
// DoS-like workload (40% invalid transactions): inter-phase bytes and
// surviving throughput, pre-screening off vs on.
func BenchmarkAblationPreScreen(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"prescreen_off", false}, {"prescreen_on", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			p := protocol.DefaultParams()
			p.Rounds = 1
			p.CrossFrac = 0.6
			p.InvalidFrac = 0.4
			p.PreScreenCross = mode.on
			var interBytes uint64
			var tput int
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				e, err := protocol.NewEngine(p)
				if err != nil {
					b.Fatal(err)
				}
				reports, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				interBytes = reports[0].PhaseTraffic["inter"].Bytes
				tput = reports[0].Throughput()
			}
			b.ReportMetric(float64(interBytes), "inter_bytes")
			b.ReportMetric(float64(tput), "tx/round")
		})
	}
}

// BenchmarkAblationParallelBlockGen measures the §VIII-B extension:
// rejected (mostly chained) transactions and throughput with overlay
// voting off vs on.
func BenchmarkAblationParallelBlockGen(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"chains_rejected", false}, {"chains_accepted", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			p := protocol.DefaultParams()
			p.Rounds = 2
			p.ParallelBlockGen = mode.on
			var tput, rejected int
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				e, err := protocol.NewEngine(p)
				if err != nil {
					b.Fatal(err)
				}
				reports, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				tput, rejected = 0, 0
				for _, r := range reports {
					tput += r.Throughput()
					rejected += r.Rejected
				}
			}
			b.ReportMetric(float64(tput), "tx_total")
			b.ReportMetric(float64(rejected), "rejected")
		})
	}
}

// BenchmarkPipelinedThroughput compares the sequential round latency with
// the §IV pipelined latency model (Params.Pipelined) on the sharded
// ledger store, across committee counts and worker-pool sizes.
// PowHardness is raised toward a realistic participation-puzzle cost so
// the benchmark exposes what the paper's §IV pipeline is for: the
// election work hides behind transaction processing instead of
// serialising after it.
//
// Headline read: at equal tx/round, the pipelined simulated round latency
// (ticks/round, and therefore tx/tick) beats the sequential sum at every m
// and parallelism. Both modes execute the same stages in the same order,
// so ns/op moves with parallelism only: on multi-core hosts par=4 fans the
// PoW and the verdict precompute over the CPU pool and the events over
// simnet lanes, whichever mode reports the latency.
func BenchmarkPipelinedThroughput(b *testing.B) {
	for _, m := range []int{4, 8} {
		for _, par := range []int{1, 4} {
			for _, mode := range []struct {
				name      string
				pipelined bool
			}{{"sequential", false}, {"pipelined", true}} {
				m, par, mode := m, par, mode
				b.Run(fmt.Sprintf("m=%d/par=%d/%s", m, par, mode.name), func(b *testing.B) {
					p := protocol.DefaultParams()
					p.M = m
					p.Rounds = 2
					p.Parallelism = par
					p.PowHardness = 1 << 12
					p.Pipelined = mode.pipelined
					var tput int
					var ticks float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p.Seed = int64(i + 1)
						e, err := protocol.NewEngine(p)
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						reports, err := e.Run()
						if err != nil {
							b.Fatal(err)
						}
						for _, r := range reports {
							tput += r.Throughput()
							ticks += float64(r.Duration)
						}
					}
					rounds := float64(p.Rounds * b.N)
					b.ReportMetric(float64(tput)/rounds, "tx/round")
					b.ReportMetric(ticks/rounds, "ticks/round")
					b.ReportMetric(float64(tput)/ticks, "tx/tick")
				})
			}
		}
	}
}

// BenchmarkRoundHotPath is the canonical per-round cost benchmark: one
// engine, default parameters, RunRound in a tight loop. Engine construction
// (key generation, genesis) is excluded, so ns/op and allocs/op measure the
// steady-state ledger→routing→consensus round hot path. It is the
// configuration BENCHMARK.json's steady-small workload runs, which is where
// the number of record is taken; this function is for profiling while
// working (go test -bench 'RoundHotPath$' -cpuprofile).
func BenchmarkRoundHotPath(b *testing.B) {
	p := protocol.DefaultParams()
	p.PowHardness = 1 << 12
	e, err := protocol.NewEngine(p)
	if err != nil {
		b.Fatal(err)
	}
	var tput int
	var ticks float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		tput += r.Throughput()
		ticks += float64(r.Duration)
	}
	b.ReportMetric(float64(tput)/float64(b.N), "tx/round")
	b.ReportMetric(ticks/float64(b.N), "ticks/round")
	if ticks > 0 {
		b.ReportMetric(float64(tput)/ticks, "tx/tick")
	}
}

// BenchmarkScaleCeiling measures the simulator core at the ROADMAP's
// scale ceiling: committee-shaped traffic (leader broadcast, member
// votes, leader→referee results, a sprinkling of timers) on topologies
// stepped from the paper's scale (m=20, c=97, n=2000) through 10×
// (m=200, n≈19.5k) to 50× (m=1000, n≈97k), at full parallelism. One op
// is one synthetic round. The protocol layer is deliberately absent —
// this isolates the simnet core (per-lane calendar queues and free
// lists, the serial send drain and traffic ledger, persistent worker
// pool), whose contract is ≤ 1 amortized allocation per delivered
// message; allocs/msg reports the measured value (allocs/op follows the
// lane count, i.e. GOMAXPROCS). The 50× cell needs CYCLEDGER_SCALE_BIG=1
// (the CI scale-big job sets it): one warm round alone delivers ~200k
// messages.
func BenchmarkScaleCeiling(b *testing.B) {
	const cSize, refSize = 97, 60
	for _, sc := range []struct {
		name string
		m    int
		big  bool
	}{{"1x", 20, false}, {"4x", 80, false}, {"10x", 200, false}, {"50x", 1000, true}} {
		sc := sc
		b.Run("scale="+sc.name, func(b *testing.B) {
			if sc.big && os.Getenv("CYCLEDGER_SCALE_BIG") == "" {
				b.Skip("50×-scale cell disabled; set CYCLEDGER_SCALE_BIG=1 to run")
			}
			m := sc.m
			refBase := m * cSize
			total := refBase + refSize
			classify := func(from, to simnet.NodeID) simnet.LinkClass {
				fRef, tRef := int(from) >= refBase, int(to) >= refBase
				if fRef && tRef {
					return simnet.LinkIntra
				}
				if !fRef && !tRef && int(from)/cSize == int(to)/cSize {
					return simnet.LinkIntra
				}
				fKey := fRef || int(from)%cSize == 0
				tKey := tRef || int(to)%cSize == 0
				if fKey && tKey {
					return simnet.LinkKey
				}
				return simnet.LinkPartial
			}
			lat := simnet.Latency{Delta: 10, Gamma: 40, PartialMax: 100, Classify: classify}
			net := simnet.New(lat, 1)
			net.SetParallelism(0) // GOMAXPROCS lanes
			for id := 0; id < total; id++ {
				id := simnet.NodeID(id)
				net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
					switch msg.Tag {
					case "PROPOSE":
						ctx.Send(msg.From, "VOTE", nil, 64)
						if int(id)%29 == 0 {
							ctx.After(5, func(c *simnet.Context) {
								c.Send(msg.From, "ECHO", nil, 16)
							})
						}
					}
				})
			}
			committee := make([]simnet.NodeID, cSize-1)
			round := func() {
				for k := 0; k < m; k++ {
					leader := simnet.NodeID(k * cSize)
					for i := range committee {
						committee[i] = leader + 1 + simnet.NodeID(i)
					}
					for _, to := range committee {
						net.Send(leader, to, "PROPOSE", nil, 128)
					}
					for r := 0; r < 3; r++ {
						net.Send(leader, simnet.NodeID(refBase+(k+r)%refSize), "RESULT", nil, 256)
					}
				}
				net.RunUntilIdle()
			}
			// Warm pools, maps, and bucket capacities until allocation
			// steady state: map growth keeps allocating incrementally for a
			// few rounds after the key set is complete, and the -benchtime
			// 1x CI smoke run must measure the same steady state the
			// committed 3x file does.
			for w := 0; w < 3; w++ {
				round()
			}
			var ms0, ms1 runtime.MemStats
			msgs0 := net.Metrics().Total().Messages
			ticks0 := net.Now()
			runtime.ReadMemStats(&ms0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			msgs := net.Metrics().Total().Messages - msgs0
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/round")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(msgs), "allocs/msg")
			b.ReportMetric(float64(net.Now()-ticks0)/float64(b.N), "ticks/round")
			b.ReportMetric(float64(total), "nodes")
		})
	}
}

// BenchmarkEd25519VsHashScheme compares the two signature schemes an
// Algorithm 3 endpoint can run on: one sign + verify of a short message.
func BenchmarkEd25519VsHashScheme(b *testing.B) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(4)))
	msg := []byte("consensus message")
	b.Run("ed25519", func(b *testing.B) {
		s := consensus.Ed25519Scheme{}
		for i := 0; i < b.N; i++ {
			sig := s.Sign(kp, msg)
			if err := s.Verify(kp.PK, sig, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		s := consensus.HashScheme{}
		for i := 0; i < b.N; i++ {
			sig := s.Sign(kp, msg)
			if err := s.Verify(kp.PK, sig, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
