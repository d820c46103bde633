// Package transport is the live carrier for the protocol engine's one
// network. Every run — simulated or live — is scheduled by a single
// *simnet.Network, which owns virtual time, the event queue, scheduling
// keys, the keyed delay draw, the fault model and the traffic accounting;
// an engine that is given nothing else runs with payloads riding inside
// the Network's events (the deterministic simulator). Live is a
// simnet.Carrier installed on that Network: payloads cross node boundaries
// exclusively as codec-encoded frames (see frame.go), encoded on the
// Network's serial send drain and decoded by each receiver on the lane
// that delivers to it. Since the scheduler is shared, any scenario —
// faulted or not — produces identical virtual-time schedules, and
// therefore identical RoundReports, byte for byte, with or without the
// carrier.
package transport

// Codec serialises message payloads for the live carrier. package wire
// provides the production implementation; the interface keeps this package
// free of a dependency on the message definitions and lets tests substitute
// a toy codec.
type Codec interface {
	// AppendEncode appends v's encoding to buf and returns the extended
	// buffer.
	AppendEncode(buf []byte, v any) ([]byte, error)
	// Decode parses one value from the front of data, returning it and
	// the number of bytes consumed.
	Decode(data []byte) (any, int, error)
}
