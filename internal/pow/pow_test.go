package pow

import (
	"math/rand"
	"testing"

	"cycledger/internal/crypto"
)

func TestSolveAndVerify(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(1)))
	p := NewPuzzle(3, crypto.HString("seed"), 64)
	sol, attempts, err := Solve(p, kp.PK, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if attempts == 0 {
		t.Fatal("zero attempts reported")
	}
	if !Verify(p, sol) {
		t.Fatal("valid solution rejected")
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(2)))
	p := NewPuzzle(3, crypto.HString("seed"), 1<<20)
	sol, _, err := Solve(p, kp.PK, 0, 1<<24)
	if err != nil {
		t.Skip("unlucky search budget")
	}
	sol.Nonce++
	if Verify(p, sol) {
		t.Fatal("off-by-one nonce accepted (astronomically unlikely)")
	}
}

func TestVerifyRejectsOtherKey(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(3)))
	other := crypto.GenerateKeyPair(rand.New(rand.NewSource(4)))
	p := NewPuzzle(3, crypto.HString("seed"), 1<<16)
	sol, _, err := Solve(p, kp.PK, 0, 1<<22)
	if err != nil {
		t.Skip("unlucky search budget")
	}
	sol.PK = other.PK
	if Verify(p, sol) {
		t.Fatal("solution transferred to another identity")
	}
}

func TestSolutionsBoundToRound(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(5)))
	p3 := NewPuzzle(3, crypto.HString("seed"), 1<<12)
	p4 := NewPuzzle(4, crypto.HString("seed"), 1<<12)
	sol, _, err := Solve(p3, kp.PK, 0, 1<<20)
	if err != nil {
		t.Skip("unlucky search budget")
	}
	if Verify(p4, sol) {
		t.Fatal("solution replayed across rounds (astronomically unlikely)")
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(6)))
	p := NewPuzzle(1, crypto.HString("seed"), 1<<40)
	if _, _, err := Solve(p, kp.PK, 0, 4); err != ErrNoSolution {
		t.Fatalf("expected ErrNoSolution, got %v", err)
	}
}

func TestExpectedAttemptsNearHardness(t *testing.T) {
	// Average attempts over many solves should be near the hardness.
	const hardness = 32
	rng := rand.New(rand.NewSource(7))
	p := NewPuzzle(1, crypto.HString("seed"), hardness)
	total := uint64(0)
	const runs = 200
	for i := 0; i < runs; i++ {
		kp := crypto.GenerateKeyPair(rng)
		_, attempts, err := Solve(p, kp.PK, 0, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		total += attempts
	}
	avg := float64(total) / runs
	if avg < hardness*0.6 || avg > hardness*1.5 {
		t.Fatalf("average attempts %.1f, expected about %d", avg, hardness)
	}
}

func TestZeroHardnessClamped(t *testing.T) {
	p := NewPuzzle(1, crypto.HString("s"), 0)
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(8)))
	if _, _, err := Solve(p, kp.PK, 0, 2); err != nil {
		t.Fatal("hardness 0 should behave as trivial puzzle")
	}
}

func TestSolveMidstateMatchesOneShot(t *testing.T) {
	// The midstate-resumed search must find exactly the nonce the one-shot
	// digest path accepts, for several keys and hardness settings. A 32-byte
	// key ends the nonce's length frame on a block boundary; 31- and 33-byte
	// keys move the boundary, and the digests must not move with it.
	rng := rand.New(rand.NewSource(99))
	for _, hardness := range []uint64{1, 2, 64, 1 << 12} {
		p := NewPuzzle(5, crypto.HString("midstate"), hardness)
		for k := 0; k < 5; k++ {
			kp := crypto.GenerateKeyPair(rng)
			for _, pk := range []crypto.PublicKey{kp.PK, kp.PK[:31], append(kp.PK[:32:32], 0x5A)} {
				sol, attempts, err := Solve(p, pk, uint64(k)<<32, 1<<20)
				if err != nil {
					t.Fatalf("hardness %d: %v", hardness, err)
				}
				// The accepted nonce verifies through the one-shot path...
				if !Verify(p, sol) {
					t.Fatalf("hardness %d, %d-byte key: midstate solution fails one-shot Verify", hardness, len(pk))
				}
				// ...and no earlier nonce would have been accepted by it.
				for n := uint64(k) << 32; n < sol.Nonce; n++ {
					if Verify(p, Solution{PK: pk, Nonce: n}) {
						t.Fatalf("hardness %d, %d-byte key: midstate search skipped winning nonce %d", hardness, len(pk), n)
					}
				}
				if want := sol.Nonce - (uint64(k) << 32) + 1; attempts != want {
					t.Fatalf("attempts = %d, want %d", attempts, want)
				}
			}
		}
	}
}

// BenchmarkSolve times Solve at the workloads' hardness (4096), per attempt.
func BenchmarkSolve(b *testing.B) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(10)))
	p := NewPuzzle(1, crypto.HString("bench"), 4096)
	var attempts uint64
	for i := 0; i < b.N; i++ {
		_, tried, err := Solve(p, kp.PK, uint64(i)<<32, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		attempts += tried
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
}
