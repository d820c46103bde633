package committee

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Directory's reads and writes that only tests use.

// Merge unions another directory into this one.
func (d *Directory) Merge(other *Directory) {
	for _, rec := range other.records {
		d.Add(rec)
	}
}

// Nodes returns the member node IDs in sorted order.
func (d *Directory) Nodes() []simnet.NodeID {
	out := make([]simnet.NodeID, len(d.records))
	for i := range d.records {
		out[i] = d.records[i].Node
	}
	return out
}

// Clone deep-copies the directory.
func (d *Directory) Clone() *Directory {
	return &Directory{records: d.Snapshot(), recBytes: d.recBytes}
}

// oracleDirectory is Directory as it stood while it was a map that every
// read sorted, verbatim but for the names: the form the sorted slice is
// compared with. It changes only if the semi-commitment's encoding does.
type oracleDirectory struct {
	records map[simnet.NodeID]MemberRecord
}

func newOracleDirectory() *oracleDirectory {
	return &oracleDirectory{records: make(map[simnet.NodeID]MemberRecord)}
}

func (d *oracleDirectory) Add(rec MemberRecord) {
	d.records[rec.Node] = rec
}

func (d *oracleDirectory) Merge(other *oracleDirectory) {
	for _, rec := range other.records {
		d.Add(rec)
	}
}

func (d *oracleDirectory) Contains(id simnet.NodeID) bool {
	_, ok := d.records[id]
	return ok
}

func (d *oracleDirectory) Len() int { return len(d.records) }

func (d *oracleDirectory) Nodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(d.records))
	for id := range d.records {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (d *oracleDirectory) Records() []MemberRecord {
	nodes := d.Nodes()
	out := make([]MemberRecord, len(nodes))
	for i, id := range nodes {
		out[i] = d.records[id]
	}
	return out
}

func (d *oracleDirectory) Clone() *oracleDirectory {
	c := newOracleDirectory()
	for _, rec := range d.records {
		c.Add(rec)
	}
	return c
}

func (d *oracleDirectory) canonical() [][]byte {
	recs := d.Records()
	parts := make([][]byte, 0, 2*len(recs))
	for _, rec := range recs {
		var nb [4]byte
		nb[0] = byte(rec.Node >> 24)
		nb[1] = byte(rec.Node >> 16)
		nb[2] = byte(rec.Node >> 8)
		nb[3] = byte(rec.Node)
		parts = append(parts, nb[:], rec.PK)
	}
	return parts
}

func (d *oracleDirectory) SemiCommitment() crypto.Digest {
	return crypto.H(append([][]byte{[]byte("cycledger/semicom/v1")}, d.canonical()...)...)
}

// fakeRecord is a record with random key material: the directory never
// looks inside one.
func fakeRecord(rng *rand.Rand, id simnet.NodeID) MemberRecord {
	rec := MemberRecord{Node: id, PK: make(crypto.PublicKey, 32), Proof: make([]byte, 8)}
	rng.Read(rec.PK)
	rng.Read(rec.Hash[:])
	rng.Read(rec.Proof)
	return rec
}

// oracleOf is the directory the map form builds from a list, in order.
func oracleOf(recs []MemberRecord) *oracleDirectory {
	o := newOracleDirectory()
	for _, rec := range recs {
		o.Add(rec)
	}
	return o
}

func sameAsOracle(t *testing.T, what string, d *Directory, o *oracleDirectory) {
	t.Helper()
	if d.Len() != o.Len() {
		t.Fatalf("%s: Len %d, oracle %d", what, d.Len(), o.Len())
	}
	for id := simnet.NodeID(-6); id < 46; id++ {
		if d.Contains(id) != o.Contains(id) {
			t.Fatalf("%s: Contains(%d) = %v, oracle %v", what, id, d.Contains(id), o.Contains(id))
		}
	}
	if got, want := d.Nodes(), o.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Nodes %v, oracle %v", what, got, want)
	}
	if got, want := d.Snapshot(), o.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot differs from the oracle's:\n%v\n%v", what, got, want)
	}
	if d.SemiCommitment() != o.SemiCommitment() {
		t.Fatalf("%s: SemiCommitment differs from the oracle's", what)
	}
	if got, want := d.ListSize(), wire.Size(MemListMsg{Records: o.Records()}); got != want {
		t.Fatalf("%s: ListSize %d, a MEM_LIST of the oracle's records is %d B", what, got, want)
	}
}

// TestDirectorySnapshotsAreStable interleaves Snapshot with appends,
// overwrites and inserts, on a directory and the map form: after every step,
// every snapshot taken so far still shows the records the oracle held when
// it was taken, and a MEM_LIST of the directory's records is ListSize bytes.
func TestDirectorySnapshotsAreStable(t *testing.T) {
	type snapshot struct {
		got, want []MemberRecord
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, o := NewDirectory(), newOracleDirectory()
		var snaps []snapshot
		for step := 0; step < 150; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			nodes := o.Nodes()
			var id simnet.NodeID
			switch op := rng.Intn(4); {
			case op == 0:
				snap := d.Snapshot()
				if got, want := d.ListSize(), wire.Size(MemListMsg{Records: snap}); got != want {
					t.Fatalf("%s: ListSize %d, the snapshot's MEM_LIST is %d B", what, got, want)
				}
				snaps = append(snaps, snapshot{snap, o.Records()})
				sameAsOracle(t, what+" (snapshot)", d, o)
				continue
			case op == 1 || len(nodes) == 0: // append past the last record
				id = simnet.NodeID(rng.Intn(3) - 5)
				if len(nodes) > 0 {
					id += nodes[len(nodes)-1] + 6
				}
			case op == 2: // overwrite a held record
				id = nodes[rng.Intn(len(nodes))]
			default: // insert before the last record, or overwrite one there
				id = nodes[0] - 1 + simnet.NodeID(rng.Intn(int(nodes[len(nodes)-1]-nodes[0])+1))
			}
			rec := fakeRecord(rng, id)
			d.Add(rec)
			o.Add(rec)
			sameAsOracle(t, what, d, o)
			for i, s := range snaps {
				if !slices.EqualFunc(s.got, s.want, func(a, b MemberRecord) bool { return reflect.DeepEqual(a, b) }) {
					t.Fatalf("%s: snapshot %d changed after it was taken:\n%v\n%v", what, i, s.got, s.want)
				}
			}
		}
	}
}

// TestDirectoryMatchesOracle drives the sorted slice and the map form
// through the same random histories — records arriving in any order, IDs
// repeated under different keys (negative ones included), merges, clones
// mutated on either side — and compares every read after every step.
func TestDirectoryMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRec := func() MemberRecord { return fakeRecord(rng, simnet.NodeID(rng.Intn(48)-5)) }
		d, o := NewDirectory(), newOracleDirectory()
		sameAsOracle(t, "empty", d, o)
		for step := 0; step < 150; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch rng.Intn(10) {
			case 0:
				d2, o2 := NewDirectory(), newOracleDirectory()
				for k := rng.Intn(12); k > 0; k-- {
					rec := randRec()
					d2.Add(rec)
					o2.Add(rec)
				}
				d.Merge(d2)
				o.Merge(o2)
				sameAsOracle(t, what+" (merged-in side)", d2, o2)
			case 1:
				dc, oc := d.Clone(), o.Clone()
				ours, theirs := randRec(), randRec()
				dc.Add(theirs)
				oc.Add(theirs)
				sameAsOracle(t, what+" (original after its clone changed)", d, o)
				d.Add(ours)
				o.Add(ours)
				sameAsOracle(t, what+" (clone after its original changed)", dc, oc)
			default:
				rec := randRec()
				d.Add(rec)
				o.Add(rec)
			}
			sameAsOracle(t, what, d, o)
		}

		// SemiCommitmentOf is the digest of the directory a list builds,
		// whatever the list: canonical, shuffled, with a node listed twice
		// at a distance, and with one listed twice side by side.
		sorted := d.Snapshot()
		shuffled := append([]MemberRecord(nil), sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		duplicated := append(append([]MemberRecord(nil), shuffled...), fakeRecord(rng, shuffled[0].Node), fakeRecord(rng, sorted[0].Node))
		i := 1 + rng.Intn(len(sorted)-1)
		adjacent := slices.Insert(append([]MemberRecord(nil), sorted...), i, fakeRecord(rng, sorted[i].Node))
		adjacentFirst := slices.Insert(append([]MemberRecord(nil), sorted...), i+1, fakeRecord(rng, sorted[i].Node))
		for name, list := range map[string][]MemberRecord{
			"empty": nil, "single": sorted[:1], "sorted": sorted, "shuffled": shuffled,
			"duplicated": duplicated, "adjacent": adjacent, "adjacent-first": adjacentFirst,
		} {
			in := append([]MemberRecord(nil), list...)
			if SemiCommitmentOf(list) != oracleOf(list).SemiCommitment() {
				t.Fatalf("seed %d: SemiCommitmentOf(%s list) differs from the oracle's", seed, name)
			}
			if !reflect.DeepEqual(list, in) {
				t.Fatalf("seed %d: SemiCommitmentOf reordered the %s list it was given", seed, name)
			}
		}
		if SemiCommitmentOf(sorted) != SemiCommitmentOf(shuffled) || SemiCommitmentOf(sorted) == SemiCommitmentOf(duplicated) {
			t.Fatalf("seed %d: shuffling must keep the digest and a substituted key must change it", seed)
		}
	}
}

// TestSemiCommitmentOfSortedDoesNotCopy pins the in-place path: a canonical
// list costs what canonical and crypto.H allocate and no MemberRecord
// slice, which a list that has to be sorted first pays on top.
func TestSemiCommitmentOfSortedDoesNotCopy(t *testing.T) {
	const ceiling = 3 // canonical's ID buffer and part list, and crypto.H's hash state
	rng := rand.New(rand.NewSource(3))
	sorted := make([]MemberRecord, 48)
	for i := range sorted {
		sorted[i] = fakeRecord(rng, simnet.NodeID(10+3*i))
	}
	shuffled := append([]MemberRecord(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	var inPlace, viaDirectory crypto.Digest
	sortedAllocs := testing.AllocsPerRun(50, func() { inPlace = SemiCommitmentOf(sorted) })
	shuffledAllocs := testing.AllocsPerRun(50, func() { viaDirectory = SemiCommitmentOf(shuffled) })
	if inPlace != viaDirectory || inPlace != oracleOf(sorted).SemiCommitment() {
		t.Fatal("sorted and shuffled lists of the same records must hash to the oracle's digest")
	}
	t.Logf("allocations: %.0f for the canonical list, %.0f for the shuffled one", sortedAllocs, shuffledAllocs)
	if sortedAllocs > ceiling || sortedAllocs >= shuffledAllocs {
		t.Fatalf("canonical list: %.0f allocations (ceiling %d; shuffled %.0f)", sortedAllocs, ceiling, shuffledAllocs)
	}
}
