// Package cycledger_test holds the repository's go test -bench timing
// cells: the round hot path (BenchmarkRoundHotPath), the sequential
// against the §IV pipelined latency model (BenchmarkPipelinedThroughput),
// the simulator core at the scale ceiling (BenchmarkScaleCeiling) and the
// two signature schemes (BenchmarkEd25519VsHashScheme). They are for
// profiling while working; nothing records or gates their output. The
// performance contract is BENCHMARK.json, driven by bench/.
//
// The paper's tables and figures are not here: cycsim -artefact prints
// each one, and cmd/cycsim's TestClaims checks its headline.
package cycledger_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
)

// BenchmarkPipelinedThroughput compares the sequential round latency with
// the §IV pipelined latency model (Params.Pipelined) on the sharded
// ledger store, across committee counts and worker-pool sizes.
// PowHardness stays at the default 8: the pipeline is a latency model over
// the stages' virtual spans, so the election track's overlap with
// transaction processing shows in ticks, and no wall-clock PoW cost hides
// behind anything.
//
// Headline read: at equal tx/round, the pipelined simulated round latency
// (ticks/round, and therefore tx/tick) beats the sequential sum at every m
// and parallelism. Both modes execute the same stages in the same order,
// so ns/op moves with parallelism only: on multi-core hosts par=4 spreads
// the events over simnet lanes, whichever mode reports the latency.
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
					p.PowHardness = 8
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
// this isolates the simnet core (the one calendar queue and event free
// list, the serial effect drain and traffic ledger, lanes that run
// handlers on the persistent worker pool), whose contract is ≤ 1
// amortized allocation per delivered message; allocs/msg reports the
// measured value (allocs/op follows the lane count, i.e. GOMAXPROCS). The 50× cell needs CYCLEDGER_SCALE_BIG=1
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
