// Package committee implements CycLedger's committee machinery: the
// cryptographic sortition of Algorithm 1, the member directory with its
// canonical encoding (the input of the semi-commitment H(S)), and the
// message-driven committee-configuration protocol of Algorithm 2.
package committee

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// SortitionResult is the outcome of Algorithm 1 for one node.
type SortitionResult struct {
	CommitteeID uint64
	Out         crypto.VRFOutput
}

// Sortition is Algorithm 1: the VRF over COMMON_MEMBER ‖ r ‖ R_r assigns
// the node to committee hash mod m and yields the proof π.
func Sortition(kp crypto.KeyPair, round uint64, randomness crypto.Digest, m uint64) SortitionResult {
	if m == 0 {
		panic("committee: zero committees")
	}
	out := crypto.VRFProve(kp.SK, crypto.SortitionInput(round, randomness))
	return SortitionResult{CommitteeID: out.Hash.Mod(m), Out: out}
}

// VerifySortition checks a claimed committee membership: the VRF proof must
// verify and the committee ID must equal hash mod m.
func VerifySortition(pk crypto.PublicKey, round uint64, randomness crypto.Digest, m uint64, claimed uint64, out crypto.VRFOutput) error {
	if m == 0 {
		return fmt.Errorf("committee: zero committees")
	}
	if err := crypto.VRFVerify(pk, crypto.SortitionInput(round, randomness), out); err != nil {
		return err
	}
	if got := out.Hash.Mod(m); got != claimed {
		return fmt.Errorf("committee: claimed committee %d, proof yields %d", claimed, got)
	}
	return nil
}

// MemberRecord is one entry of the member list S: the node's address
// (simulator node ID), public key, and sortition certificate.
type MemberRecord struct {
	Node  simnet.NodeID
	PK    crypto.PublicKey
	Hash  crypto.Digest
	Proof []byte
}

// Directory is a member list S: its records ascending by node ID, one per
// node, so the canonical encoding — and hence the semi-commitment — is
// independent of arrival order and every read is the slice as it lies.
type Directory struct {
	records []MemberRecord
	// recBytes is the sum of the records' wire.Size, kept by Add.
	recBytes int
}

// NewDirectory returns an empty member list.
func NewDirectory() *Directory { return &Directory{} }

// find returns the position of id's record, or where it belongs. It
// probes by index: a search that hands each probed record to a comparison
// by value copies 88 bytes a probe.
func (d *Directory) find(id simnet.NodeID) (int, bool) {
	i := sort.Search(len(d.records), func(i int) bool { return d.records[i].Node >= id })
	return i, i < len(d.records) && d.records[i].Node == id
}

// holds reports whether the directory holds exactly rec: a record for its
// node with the same public key, hash and proof bytes.
func (d *Directory) holds(rec *MemberRecord) bool {
	i, found := d.find(rec.Node)
	if !found {
		return false
	}
	h := &d.records[i]
	return h.Hash == rec.Hash && bytes.Equal(h.PK, rec.PK) && bytes.Equal(h.Proof, rec.Proof)
}

// Add inserts a record, or overwrites the one its node already has. Lists
// mostly arrive in order, so a record past the last is appended unsearched;
// one that belongs earlier moves the records after it, a few KB at
// committee sizes.
func (d *Directory) Add(rec MemberRecord) {
	d.recBytes += wire.Size(rec)
	if n := len(d.records); n == 0 || d.records[n-1].Node < rec.Node {
		d.records = append(d.records, rec)
		return
	}
	if i, found := d.find(rec.Node); found {
		d.recBytes -= wire.Size(d.records[i])
		d.records[i] = rec
	} else {
		d.records = slices.Insert(d.records, i, rec)
	}
}

// Contains reports membership.
func (d *Directory) Contains(id simnet.NodeID) bool {
	_, found := d.find(id)
	return found
}

// Len returns the member count.
func (d *Directory) Len() int { return len(d.records) }

// Snapshot returns a copy of the records, ascending by node ID.
func (d *Directory) Snapshot() []MemberRecord {
	return append(make([]MemberRecord, 0, len(d.records)), d.records...)
}

// ListSize returns wire.Size(MemListMsg{Records: d.Snapshot()}) from the
// running sum of the records' sizes: the size a MEM_LIST answer declares.
func (d *Directory) ListSize() int {
	return wire.Size(MemListMsg{}) + d.recBytes
}

// canonical returns the parts H(S) is taken over: the domain tag, then the
// node ID and public key of each record, in the order given. The encoding
// is injective for a list ascending by node ID.
func canonical(recs []MemberRecord) [][]byte {
	ids := make([]byte, 4*len(recs))
	parts := make([][]byte, 1, 1+2*len(recs))
	parts[0] = []byte("cycledger/semicom/v1")
	for i := range recs {
		nb := ids[4*i : 4*i+4 : 4*i+4]
		binary.BigEndian.PutUint32(nb, uint32(recs[i].Node))
		parts = append(parts, nb, recs[i].PK)
	}
	return parts
}

// SemiCommitment returns H(S) over the canonical encoding — the
// committee's semi-commitment of §IV-B. Computational binding is inherited
// from the collision resistance of H (Lemma 1).
func (d *Directory) SemiCommitment() crypto.Digest {
	return crypto.H(canonical(d.records)...)
}

// SemiCommitmentOf returns the semi-commitment of the directory the listed
// records would build, added in order. A strictly ascending list already is
// that directory's records and is hashed where it lies; anything else
// (unsorted, or a node listed twice, where the last record wins) is built
// into a directory first.
func SemiCommitmentOf(recs []MemberRecord) crypto.Digest {
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Node >= recs[i].Node {
			d := &Directory{records: make([]MemberRecord, 0, len(recs))}
			for _, rec := range recs {
				d.Add(rec)
			}
			return d.SemiCommitment()
		}
	}
	return crypto.H(canonical(recs)...)
}
