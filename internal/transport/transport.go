// Package transport abstracts the network under the protocol engine
// behind a single interface with two implementations: the deterministic
// discrete-event simulator (package simnet, wrapped by Sim) and a live
// transport (Live) that runs every node as a real concurrent goroutine
// exchanging codec-encoded frames through per-node mailboxes.
//
// There is one scheduler: Live is Sim plus a payload carrier
// (simnet.Carrier). The same *simnet.Network owns virtual time, the event
// queue, scheduling keys, the keyed delay draw, the fault model and the
// traffic accounting on both transports, so any scenario — faulted or not
// — produces identical virtual-time schedules, and therefore identical
// RoundReports, byte for byte, on either. The live transport differs only
// in mechanism: payloads cross node boundaries exclusively as serialised
// frames (see frame.go), filed in the destination's mailbox from the
// Network's serial send drain and claimed by key at delivery, and handlers
// decode and execute on per-node goroutines.
package transport

import (
	"cycledger/internal/simnet"
)

// Transport is the network contract the protocol engine programs against,
// extracted from *simnet.Network's method set. Sends and timers issued
// from handlers go through the *simnet.Context the transport hands to
// each handler invocation; the methods here are the engine-side half:
// registration, external sends/timers, the run loop, clock, and metrics.
type Transport interface {
	// Register installs the handler for a node; re-registering replaces it.
	Register(id simnet.NodeID, h simnet.Handler)
	// Send enqueues a message from outside any handler.
	Send(from, to simnet.NodeID, tag string, payload any, size int)
	// After schedules fn on the given node after delay d (clamped to ≥ 1).
	After(node simnet.NodeID, d simnet.Time, fn func(*simnet.Context))
	// RunUntilIdle drains the event queue and returns the number of events
	// processed.
	RunUntilIdle() uint64
	// Now returns the current virtual time.
	Now() simnet.Time
	// Metrics exposes the traffic accounting.
	Metrics() *simnet.Metrics
	// SetFaults installs a fault model. A transport that cannot honour the
	// model rejects it with an error (Sim and Live honour every model);
	// nil (or simnet.NoFaults) always succeeds and restores fault-free
	// behaviour.
	SetFaults(f simnet.Faults) error
	// SetParallelism sets the same-tick execution width: the number of
	// simnet worker lanes, which on the live transport bounds how many
	// node goroutines run at once within a tick.
	SetParallelism(k int)
	// SetDown marks a node offline (true) or online (false); offline nodes
	// drop incoming messages and their timers do not fire.
	SetDown(id simnet.NodeID, down bool)
	// SetSendAudit installs a hook observing every message at send time,
	// before delays are drawn; nil removes it.
	SetSendAudit(fn func(simnet.Message))
	// Close releases transport resources (node goroutines). The sim
	// adapter has none and returns nil; a closed live transport must not
	// be used again.
	Close() error
}

// Factory builds a Transport for an engine run. The latency model and
// seed are the engine's, so every factory-built transport derives the
// same delay schedule.
type Factory func(lat simnet.Latency, seed int64) (Transport, error)

// Codec serialises message payloads for transports that move real bytes.
// package wire provides the production implementation; the interface
// keeps this package free of a dependency on the message definitions.
type Codec interface {
	// AppendEncode appends v's encoding to buf and returns the extended
	// buffer.
	AppendEncode(buf []byte, v any) ([]byte, error)
	// Decode parses one value from the front of data, returning it and
	// the number of bytes consumed.
	Decode(data []byte) (any, int, error)
}

// Sim adapts *simnet.Network to the Transport interface. It adds nothing:
// every method is the network's own, so engine behaviour on Sim is the
// seed engine's behaviour, fault model included.
type Sim struct {
	*simnet.Network
}

// NewSim builds the simulator-backed transport, the default for every
// engine run.
func NewSim(lat simnet.Latency, seed int64) *Sim {
	return &Sim{Network: simnet.New(lat, seed)}
}

// SetFaults installs the fault model on the underlying network; the
// simulator honours every model, so this never fails.
func (s *Sim) SetFaults(f simnet.Faults) error {
	s.Network.SetFaults(f)
	return nil
}

// Close is a no-op: the simulator holds no external resources.
func (s *Sim) Close() error { return nil }

// SimFactory is the Factory building the default simulator transport.
func SimFactory(lat simnet.Latency, seed int64) (Transport, error) {
	return NewSim(lat, seed), nil
}

var _ Transport = (*Sim)(nil)
