// Package baseline encodes the comparison protocols of Table I — Elastico,
// OmniLedger, RapidChain — alongside CycLedger: their resiliency,
// complexity classes, storage, per-round failure probability, and the
// qualitative columns (decentralization, leader-fault efficiency,
// incentives, connection burden). The executable RapidChain-style
// behaviour (no leader recovery) lives in internal/protocol as the
// DisableRecovery ablation.
package baseline

import "math"

// Row is one protocol's Table I entry.
type Row struct {
	Name           string
	Resiliency     string  // t < n/4 or t < n/3
	ResiliencyFrac float64 // numeric tolerance
	Complexity     string  // communication complexity class
	Storage        string  // storage complexity class
	FailProbExpr   string  // the paper's failure-probability expression
	// FailProb evaluates the expression at (m, c, λ).
	FailProb func(m, c, lambda int64) float64
	// StorageItems evaluates storage at (n, m, c).
	StorageItems func(n, m, c int64) float64

	Decentralization string
	LeaderFaultOK    bool // "High Efficiency w.r.t Dishonest Leaders"
	Incentives       bool
	ConnectionBurden string // heavy / light
}

// TableI returns the four protocol rows in paper order. Each row's
// failure probability is its Table I expression, capped at 1:
//
//   - Elastico:   Ω(m·e^{-c/40})   (1/4 resiliency ⇒ weaker exponent)
//   - OmniLedger: O(m·e^{-c/40})
//   - RapidChain: m·e^{-c/12} + (1/2)^27  (reference-committee term)
//   - CycLedger:  m·(e^{-c/12} + (1/3)^λ)
//
// and its storage is the Table I class evaluated in abstract items.
func TableI() []Row {
	return []Row{
		{
			Name: "Elastico", Resiliency: "t < n/4", ResiliencyFrac: 0.25,
			Complexity: "Ω(n)", Storage: "O(n)",
			FailProbExpr: "Ω(m·e^{-c/40})",
			FailProb: func(m, c, _ int64) float64 {
				return min(1, float64(m)*math.Exp(-float64(c)/40))
			},
			StorageItems:     func(n, _, _ int64) float64 { return float64(n) },
			Decentralization: "no always-honest party",
			LeaderFaultOK:    false, Incentives: false, ConnectionBurden: "heavy",
		},
		{
			Name: "OmniLedger", Resiliency: "t < n/4", ResiliencyFrac: 0.25,
			Complexity: "O(n)", Storage: "O(c + log m)",
			FailProbExpr: "O(m·e^{-c/40})",
			FailProb: func(m, c, _ int64) float64 {
				return min(1, float64(m)*math.Exp(-float64(c)/40))
			},
			StorageItems:     func(_, m, c int64) float64 { return float64(c) + math.Log(float64(m)) },
			Decentralization: "an honest client",
			LeaderFaultOK:    false, Incentives: false, ConnectionBurden: "heavy",
		},
		{
			Name: "RapidChain", Resiliency: "t < n/3", ResiliencyFrac: 1.0 / 3,
			Complexity: "O(n)", Storage: "O(c)",
			FailProbExpr: "m·e^{-c/12} + (1/2)^27",
			FailProb: func(m, c, _ int64) float64 {
				return min(1, float64(m)*math.Exp(-float64(c)/12)+math.Pow(0.5, 27))
			},
			StorageItems:     func(_, _, c int64) float64 { return float64(c) },
			Decentralization: "an honest reference committee",
			LeaderFaultOK:    false, Incentives: false, ConnectionBurden: "heavy",
		},
		{
			Name: "CycLedger", Resiliency: "t < n/3", ResiliencyFrac: 1.0 / 3,
			Complexity: "O(n)", Storage: "O(m²/n + c)",
			FailProbExpr: "m(e^{-c/12} + (1/3)^λ)",
			FailProb: func(m, c, lambda int64) float64 {
				return min(1, float64(m)*(math.Exp(-float64(c)/12)+math.Pow(1.0/3, float64(lambda))))
			},
			StorageItems:     func(n, m, c int64) float64 { return float64(m*m)/float64(n) + float64(c) },
			Decentralization: "no always-honest party",
			LeaderFaultOK:    true, Incentives: true, ConnectionBurden: "light",
		},
	}
}

// ConnectionChannels estimates the number of reliable channels each model
// demands (the "Burden on Connection" column): previous protocols require
// good connectivity among all honest nodes (≈ n²/2 channels); CycLedger
// needs intra-committee cliques, a key-member clique, and key-member links
// to C_R (§III-B).
func ConnectionChannels(n, m, c, lambda, refSize int64) map[string]int64 {
	full := n * (n - 1) / 2
	key := m * (1 + lambda)
	cyc := m*(c*(c-1)/2) + key*(key-1)/2 + key*refSize + refSize*(refSize-1)/2
	return map[string]int64{
		"Elastico":   full,
		"OmniLedger": full,
		"RapidChain": full,
		"CycLedger":  cyc,
	}
}
