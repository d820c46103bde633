package protocol

import (
	"cycledger/internal/consensus"
	"cycledger/internal/simnet"
)

// Aggregate mode (Params.AggregateCerts) changes two things, both on the
// sending side, and this file holds them: the form of the >c/2 evidence a
// sender attaches when a decision or an impeachment leaves its committee
// (evidence — the per-voter list or its bitmap + proof fold), and how a
// committee broadcast fans out (committeeCast — flat from the root, or down
// the binomial dissemination tree, with treeStretch the matching deadline
// allowance). The messages are the same in both modes and receivers never ask
// which one is on: they call Quorum.Verify and accept what verifies.

// evidence returns the form in which this node sends a quorum it collected
// itself: q as it is, or in aggregate mode its fold over the given roster. The
// fold cannot fail for voters the collector admitted from that roster; if it
// ever did, the per-voter form is still valid.
func (n *Node) evidence(q consensus.Quorum, roster []simnet.NodeID) consensus.Quorum {
	if as, ok := n.pki.Scheme.(consensus.AggregateScheme); ok && n.P.AggregateCerts {
		if folded, err := q.Fold(as, roster); err == nil {
			return folded
		}
	}
	return q
}

// certify returns the certificate this node attaches to a decision its own
// consensus instance just produced.
func (n *Node) certify(res consensus.Result) consensus.Result {
	res.Quorum = n.evidence(res.Quorum, n.committeeNodes)
	return res
}

// treeStretch is the extra time a broadcast to a c-member committee needs
// before its deadline: up to ⌈log₂ c⌉ relay hops of Δ each under tree
// dissemination, nothing when the root reaches every member directly.
func treeStretch(p *Params, lat simnet.Latency, c int) simnet.Time {
	if !p.AggregateCerts {
		return 0
	}
	return simnet.Time(simnet.TreeDepth(c)) * lat.Delta
}

// committeeCast is this node's step of a committee broadcast rooted at root.
// Flat: the root sends to every other member and nobody relays. Tree: the
// root and every relay send to their children only (treeRelay), so the
// leader's egress is O(log C) sends. size is the payload's declared size:
// the root's wire.Size of it, taken once, and a relay's the size of the
// message it received, which is the same payload — a relay never walks it
// again.
func (n *Node) committeeCast(ctx *simnet.Context, root simnet.NodeID, tag string, payload any, size int) {
	if n.P.AggregateCerts {
		n.treeRelay(ctx, root, tag, payload, size)
		return
	}
	if n.ID != root {
		return
	}
	ctx.Broadcast(n.committeePeers, tag, payload, size)
}

// treeRelay sends the message to this node's children in the committee's
// binomial broadcast tree rooted at root — the leader's O(log C) egress
// and every relay's forwarding step. The rank order is positional shared
// state: root at rank 0, then the remaining members in roster order. Both
// sender and relays derive it in one pass over the member list instead of
// materializing a rank slice — the per-message rank/children allocations
// were the broadcast path's top allocation site at large committees.
func (n *Node) treeRelay(ctx *simnet.Context, root simnet.NodeID, tag string, payload any, size int) {
	members := n.committeeNodes
	rootPos, my := -1, -1
	for i, id := range members {
		if id == root {
			rootPos = i
		}
		if id == n.ID {
			my = i
		}
	}
	ln := len(members)
	if rootPos < 0 {
		ln++ // root sits outside the member list; every member shifts up one
	}
	var rank int
	switch {
	case n.ID == root:
		rank = 0
	case my < 0:
		return
	case rootPos >= 0 && my > rootPos:
		rank = my
	default:
		rank = my + 1
	}
	// Children of rank j are j + 2^t for every 2^t > j in range (the
	// binomial-tree rule, inlined to avoid a slice of children). Rank r ≥ 1
	// maps back to members[r-1], skipping the root's own slot when it sits
	// inside the list.
	var kids [32]simnet.NodeID // a rank has at most ⌈log₂ C⌉ children
	k := 0
	for step := 1; rank+step < ln; step <<= 1 {
		if step <= rank {
			continue
		}
		ci := rank + step - 1
		if rootPos >= 0 && ci >= rootPos {
			ci++
		}
		kids[k] = members[ci]
		k++
	}
	if k > 0 {
		ctx.Broadcast(kids[:k], tag, payload, size)
	}
}
