package ledger

import (
	"sync"

	"cycledger/internal/crypto"
)

// User-identity interning for ShardOf. The shard of a user is
// H("cycledger/shard/v1", user) mod m; the SHA-256 is a pure function of
// the identity string, so it is computed once per user per process and
// cached. The cache stores the m-independent digest, not the reduced shard,
// so stores and engines with different shard counts (a sweep runs them
// concurrently in one process) share the same entries.
//
// The table is striped 64 ways by a string hash to keep the read-mostly
// lock cheap: an engine resolves shards from one goroutine, but a sweep
// runs several engines at once over the one process-wide table.
// Entries are never evicted — the population is the set of distinct user
// identities, which is bounded by the simulated population, not by rounds.

const shardCacheStripes = 64 // power of two, see stripeFor

type shardCacheStripe struct {
	mu sync.RWMutex
	m  map[string]crypto.Digest
}

var shardCache [shardCacheStripes]shardCacheStripe

// stripeFor hashes the identity (FNV-1a) onto a cache stripe.
func stripeFor(user string) *shardCacheStripe {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= prime64
	}
	return &shardCache[h&(shardCacheStripes-1)]
}

// ownerDigest returns H(shardDomain, user), interned per user identity.
func ownerDigest(user string) crypto.Digest {
	st := stripeFor(user)
	st.mu.RLock()
	d, ok := st.m[user]
	st.mu.RUnlock()
	if ok {
		return d
	}
	d = crypto.HString(shardDomain, user)
	st.mu.Lock()
	if st.m == nil {
		st.m = make(map[string]crypto.Digest)
	}
	st.m[user] = d
	st.mu.Unlock()
	return d
}
