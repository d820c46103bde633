package consensus

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// certFixture builds a committee with real keypairs and a decision
// certificate signed by the given subset of roster positions — the raw
// material Quorum.Verify consumes in both forms.
type certFixture struct {
	committee []simnet.NodeID
	keys      map[simnet.NodeID]crypto.KeyPair
	res       Result
}

func newCertFixture(rng *rand.Rand, n int, voters []int) *certFixture {
	f := &certFixture{keys: make(map[simnet.NodeID]crypto.KeyPair, n)}
	base := simnet.NodeID(rng.Intn(100))
	for i := 0; i < n; i++ {
		id := base + simnet.NodeID(i*3) // non-contiguous IDs, like real rosters
		f.committee = append(f.committee, id)
		f.keys[id] = crypto.GenerateKeyPair(rng)
	}
	f.res = Result{
		Round:  uint64(rng.Intn(50)),
		SN:     uint64(rng.Intn(5000)),
		Digest: crypto.H([]byte{byte(rng.Intn(256))}),
	}
	for _, i := range voters {
		f.res.Quorum.Votes = append(f.res.Quorum.Votes, f.confirm(i))
	}
	return f
}

// confirm produces roster position i's vote for the fixture's instance.
func (f *certFixture) confirm(i int) Vote {
	return f.confirmBy(f.committee[i], f.keys[f.committee[i]])
}

// confirmBy signs the fixture's instance as id under kp, member or not.
func (f *certFixture) confirmBy(id simnet.NodeID, kp crypto.KeyPair) Vote {
	conf := Confirm{Round: f.res.Round, SN: f.res.SN, Digest: f.res.Digest, Confirmer: id}
	return Vote{Voter: id, Sig: HashScheme{}.Sign(kp, wire.SigningBytes(nil, conf))}
}

func (f *certFixture) pkOf(id simnet.NodeID) crypto.PublicKey { return f.keys[id].PK }

// pki is the committee's key directory under scheme.
func (f *certFixture) pki(scheme SignatureScheme) *PKI { return pkiOver(scheme, f.committee, f.pkOf) }

// aggregate folds the fixture's certificate, failing the test on error.
func (f *certFixture) aggregate(t *testing.T) Result {
	t.Helper()
	ar, err := AggregateResult(HashScheme{}, f.res, f.committee)
	if err != nil {
		t.Fatalf("AggregateResult: %v", err)
	}
	return ar
}

// randSubset picks k distinct roster positions of n.
func randSubset(rng *rand.Rand, n, k int) []int {
	return rng.Perm(n)[:k]
}

// TestAggregateEquivalenceRandom is the core equivalence property, checked
// at the seam carriers use: over random committee sizes and random voter
// subsets, the two forms of one decision's Quorum — per-voter (the oracle)
// and the fold of it — leave the instance and payload alone, and Verify
// accepts the one if and only if it accepts the other. (The same property
// for eviction-request evidence is TestEvictReqEvidence in protocol.)
func TestAggregateEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		k := rng.Intn(n + 1)
		f := newCertFixture(rng, n, randSubset(rng, n, k))
		f.res.Payload = trial
		oracle, folded := f.res, f.aggregate(t)
		if folded.Quorum.Bitmap == nil || folded.Quorum.Votes != nil {
			t.Fatalf("trial %d: fold left the per-voter form: %+v", trial, folded.Quorum)
		}
		if folded.Round != oracle.Round || folded.SN != oracle.SN || folded.Digest != oracle.Digest || folded.Payload != oracle.Payload {
			t.Fatalf("trial %d: fold changed the decision: %+v vs %+v", trial, oracle, folded)
		}
		wantErr := oracle.Verify(f.pki(HashScheme{}), f.committee) != nil
		gotErr := folded.Verify(f.pki(HashScheme{}), f.committee) != nil
		if wantErr != gotErr {
			t.Fatalf("trial %d (n=%d k=%d): per-voter Verify err=%v, aggregate Verify err=%v",
				trial, n, k, wantErr, gotErr)
		}
		if wantMaj := 2*k > n; gotErr == wantMaj {
			t.Fatalf("trial %d (n=%d k=%d): majority=%v but aggregate verification err=%v",
				trial, n, k, wantMaj, gotErr)
		}
		// The names bench/cells.go calls are the same check.
		if (VerifyCert(HashScheme{}, oracle, f.committee, f.pkOf) != nil) != wantErr ||
			(VerifyAggCert(HashScheme{}, folded, f.committee, f.pkOf) != nil) != gotErr {
			t.Fatalf("trial %d: VerifyCert / VerifyAggCert disagree with Result.Verify", trial)
		}
	}
}

// TestResultVerifyAllocatesNothing: a referee or a remote leader checks
// every certificate it is shown, so checking a valid one, per voter or
// aggregate, allocates nothing — no key list, no roster bitmap, and no
// closure or copy of the result.
func TestResultVerifyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const n = 16
	f := newCertFixture(rand.New(rand.NewSource(44)), n, randSubset(rand.New(rand.NewSource(45)), n, n/2+1))
	pki := f.pki(HashScheme{})
	for name, res := range map[string]Result{"per-voter": f.res, "aggregate": f.aggregate(t)} {
		if err := res.Verify(pki, f.committee); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = res.Verify(pki, f.committee) }); allocs != 0 {
			t.Errorf("%s: Result.Verify allocates %.0f times", name, allocs)
		}
	}
}

// TestFoldBytesDoNotGrowWithRoster: folding nine votes allocates the
// bitmap, the proof and a list of the nine signatures, so a roster of 1024
// costs no more than one of 16 beyond its larger bitmap.
func TestFoldBytesDoNotGrowWithRoster(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	const votes, runs = 9, 200
	bytesAt := func(n int) uint64 {
		f := newCertFixture(rand.New(rand.NewSource(46)), n, randSubset(rand.New(rand.NewSource(47)), n, votes))
		fold := func() {
			if _, err := f.res.Quorum.Fold(HashScheme{}, f.committee); err != nil {
				t.Fatal(err)
			}
		}
		fold()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fold()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesAt(16), bytesAt(1024)
	bitmap := uint64(len(NewBitmap(1024)))
	t.Logf("Fold of %d votes: %d bytes over 16 members, %d over 1024", votes, small, large)
	if large > small+bitmap {
		t.Fatalf("Fold allocates %d bytes over 1024 members and %d over 16: more than the %d-byte bitmap apart", large, small, bitmap)
	}
}

// TestAggResultVerifyNeedsAggregateScheme: under a scheme with no aggregate
// face an aggregate certificate is refused with an error — never a panic,
// never an acceptance — while the per-voter form of the same decision still
// verifies under its own scheme.
func TestAggResultVerifyNeedsAggregateScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := newCertFixture(rng, 7, []int{0, 1, 2, 3})
	if err := f.aggregate(t).Verify(f.pki(Ed25519Scheme{}), f.committee); err == nil {
		t.Fatal("aggregate certificate accepted under Ed25519Scheme")
	}
	if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err != nil {
		t.Fatalf("per-voter certificate rejected: %v", err)
	}
}

// TestAggregateRejections drills the refusal edges of the aggregate path:
// tampered proof, tampered bitmap, wrong roster, non-canonical bitmap, and
// sub-threshold voter sets must all fail even though the aggregate fold
// itself succeeded.
func TestAggregateRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 9
	f := newCertFixture(rng, n, []int{0, 2, 3, 5, 8}) // 5 of 9: strict majority
	ar := f.aggregate(t)
	if err := ar.Verify(f.pki(HashScheme{}), f.committee); err != nil {
		t.Fatalf("baseline aggregate cert rejected: %v", err)
	}

	check := func(name string, mutate func(*Result)) {
		t.Helper()
		bad := ar
		bad.Quorum.Bitmap, bad.Quorum.Proof = ar.Quorum.Bitmap.Clone(), append([]byte(nil), ar.Quorum.Proof...)
		mutate(&bad)
		if err := bad.Verify(f.pki(HashScheme{}), f.committee); err == nil {
			t.Errorf("%s: aggregate cert accepted", name)
		}
	}

	check("flipped proof bit", func(a *Result) { a.Quorum.Proof[0] ^= 1 })
	check("truncated proof", func(a *Result) { a.Quorum.Proof = a.Quorum.Proof[:16] })
	check("extra bitmap voter", func(a *Result) { a.Quorum.Bitmap.Set(1) })
	check("dropped bitmap voter", func(a *Result) { a.Quorum.Bitmap[0] &^= 1 })
	check("stray high bits", func(a *Result) { a.Quorum.Bitmap[len(a.Quorum.Bitmap)-1] |= 0x80 })
	check("oversized bitmap", func(a *Result) { a.Quorum.Bitmap = append(a.Quorum.Bitmap, 0) })
	check("wrong instance", func(a *Result) { a.SN++ })
	check("wrong round", func(a *Result) { a.Round++ })
	check("wrong digest", func(a *Result) { a.Digest[0] ^= 1 })

	// Same certificate against a roster with different keys: every tag
	// recomputes differently, so the proof cannot verify.
	other := newCertFixture(rng, n, nil)
	if err := ar.Verify(other.pki(HashScheme{}), other.committee); err == nil {
		t.Error("wrong roster: aggregate cert accepted")
	}

	// Exactly half the committee is not a strict majority.
	half := newCertFixture(rng, 8, []int{0, 1, 2, 3})
	if err := half.aggregate(t).Verify(half.pki(HashScheme{}), half.committee); err == nil {
		t.Error("exact half: aggregate cert accepted")
	}
	if err := half.res.Verify(half.pki(HashScheme{}), half.committee); err == nil {
		t.Error("exact half: per-voter cert accepted (oracle disagrees)")
	}
}

// TestAggregateResultErrors checks the fold itself refuses voters the
// per-voter verifier would refuse: outsiders and duplicates.
func TestAggregateResultErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := newCertFixture(rng, 5, []int{0, 1, 2})

	outsider := f.res
	outsider.Quorum.Votes = append(slices.Clone(f.res.Quorum.Votes), f.confirmBy(9999, crypto.GenerateKeyPair(rng)))
	if _, err := AggregateResult(HashScheme{}, outsider, f.committee); err == nil {
		t.Error("confirmer outside the committee aggregated without error")
	}

	dup := f.res
	dup.Quorum.Votes = append(slices.Clone(f.res.Quorum.Votes), f.confirm(1))
	if _, err := AggregateResult(HashScheme{}, dup, f.committee); err == nil {
		t.Error("duplicate confirmer aggregated without error")
	}

	short := f.res
	short.Quorum.Votes = slices.Clone(f.res.Quorum.Votes)
	short.Quorum.Votes[0].Sig = short.Quorum.Votes[0].Sig[:8]
	if _, err := AggregateResult(HashScheme{}, short, f.committee); err == nil {
		t.Error("truncated signature aggregated without error")
	}
}

// TestVerifyCertEdges pins the per-voter form's own edges — the behaviors
// the aggregate form must match: duplicate voters, the exact-half boundary,
// voters outside the roster and signatures on another header are refusals;
// one past half is acceptance.
func TestVerifyCertEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	t.Run("exact half rejected", func(t *testing.T) {
		f := newCertFixture(rng, 6, []int{0, 1, 2})
		if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err == nil {
			t.Error("3 of 6 confirms accepted")
		}
	})
	t.Run("one past half accepted", func(t *testing.T) {
		f := newCertFixture(rng, 6, []int{0, 1, 2, 3})
		if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err != nil {
			t.Errorf("4 of 6 confirms rejected: %v", err)
		}
	})
	t.Run("duplicate voter rejected", func(t *testing.T) {
		f := newCertFixture(rng, 5, []int{0, 1, 2})
		f.res.Quorum.Votes = append(f.res.Quorum.Votes, f.confirm(2))
		if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err == nil {
			t.Error("duplicate confirmer accepted")
		}
	})
	t.Run("duplicates cannot fake a majority", func(t *testing.T) {
		f := newCertFixture(rng, 5, []int{0, 1})
		f.res.Quorum.Votes = append(f.res.Quorum.Votes, f.confirm(1), f.confirm(1))
		if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err == nil {
			t.Error("padded duplicate confirms accepted")
		}
	})
	t.Run("outsider rejected", func(t *testing.T) {
		f := newCertFixture(rng, 5, []int{0, 1, 2})
		stranger := crypto.GenerateKeyPair(rng)
		f.keys[7777] = stranger
		f.res.Quorum.Votes = append(f.res.Quorum.Votes, f.confirmBy(7777, stranger))
		if err := f.res.Verify(f.pki(HashScheme{}), f.committee); err == nil {
			t.Error("confirmer outside the roster accepted")
		}
	})
	t.Run("votes for another header rejected", func(t *testing.T) {
		f := newCertFixture(rng, 5, []int{0, 1, 2})
		for name, mutate := range map[string]func(*Result){
			"round":  func(r *Result) { r.Round++ },
			"sn":     func(r *Result) { r.SN++ },
			"digest": func(r *Result) { r.Digest[0] ^= 1 },
		} {
			moved := f.res
			mutate(&moved)
			if err := moved.Verify(f.pki(HashScheme{}), f.committee); err == nil {
				t.Errorf("votes signed for another %s accepted", name)
			}
		}
	})
	t.Run("empty committee refused", func(t *testing.T) {
		f := newCertFixture(rng, 3, []int{0, 1})
		if VerifyCert(HashScheme{}, f.res, nil, f.pkOf) == nil || VerifyAggCert(HashScheme{}, f.aggregate(t), nil, f.pkOf) == nil {
			t.Error("a certificate verifies over an empty committee")
		}
	})
}

// TestBitmapCanonicalForm exercises the Bitmap primitive directly.
func TestBitmapCanonicalForm(t *testing.T) {
	for n := 0; n <= 40; n++ {
		b := NewBitmap(n)
		if err := b.Validate(n); err != nil {
			t.Fatalf("empty bitmap for n=%d invalid: %v", n, err)
		}
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		if err := b.Validate(n); err != nil {
			t.Fatalf("full bitmap for n=%d invalid: %v", n, err)
		}
		if b.Count() != n {
			t.Fatalf("full bitmap for n=%d counts %d", n, b.Count())
		}
		if n > 0 && n%8 != 0 {
			b[len(b)-1] |= 1 << (n % 8)
			if err := b.Validate(n); err == nil {
				t.Fatalf("stray bit past n=%d validated", n)
			}
		}
		if err := NewBitmap(n + 8).Validate(n); err == nil {
			t.Fatalf("oversized bitmap validated for n=%d", n)
		}
	}
	var b Bitmap
	if b.Has(0) || b.Has(-1) || b.Count() != 0 {
		t.Error("nil bitmap reads a set bit")
	}
	if b.Clone() != nil {
		t.Error("nil bitmap clone is non-nil")
	}
	c := Bitmap{0xff}.Clone()
	c[0] = 0
	if (Bitmap{0xff})[0] != 0xff {
		t.Error("clone aliases its source")
	}
}
