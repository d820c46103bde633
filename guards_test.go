package cycledger_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A guard keeps the one implementation of a mechanism from getting a second
// one beside it: a retired name, declaration or file coming back fails
// TestGuards with the row's reason.
type guard struct {
	name   string
	reason string
	// paths are git pathspecs over the module tree: a pattern with a "*" is
	// a glob whose "*" also matches "/", one without is the path itself or a
	// directory above it, and ":!" excludes. With no positive pattern every
	// path is selected.
	paths []string
	// find returns one line per place in files that breaks the rule, as
	// "path:line:text" where it has a line.
	find func(files []file) []string
	// fixture holds the retired form; the row must fire on it.
	fixture file
}

// file is one file of the tree, its path slash-separated and relative to
// the module root.
type file struct {
	path, src string
}

// whyLayout, whyQuorum, whySigning, whyFaults, whyPoW, whyShared and
// whyArtefact are the reasons shared by the rows of one mechanism.
const (
	whyLayout = "A message's wire layout is its one layout method (internal/wire), sized with wire.Size. " +
		"A WireSize() method or a revived mirror file would be a second description that has to be kept in step by hand. " +
		"So would a hand-picked digest preimage (a payload's digest is the hash of its encoding, consensus.PayloadDigest), " +
		"an adoption check that trusts a payload's own Digest() (onPropose checks every non-nil payload with PayloadDigest), " +
		"or a transaction codec beside the transaction's layout (ledger.Tx.layout is a field walk)."
	whyQuorum = "\"More than half of a roster signed this\" is checked in one place, consensus.Quorum.Verify. " +
		"Echo evidence carried per voter again, a second frame form behind a second tag (a type has one tag), " +
		"or a non-test file outside internal/consensus that calls VerifyAggregate, reads a Quorum's bitmap " +
		"or ranges over a Quorum's Votes would be a second one. Senders build a Quorum and receivers call Verify; neither looks inside."
	whySigning = "A signature covers its message's layout: every Sign and Verify in the protocol is handed one " +
		"wire.SigningBytes result, the tagged encoding without the signature fields the layout marks. " +
		"A hand-picked preimage beside the layout would be a second description of the message, free to skip fields " +
		"(the six retired ones skipped six), and a scheme call handed several parts is one."
	whyFaults = "\"X is down in [a, b)\", \"X's sends are lost\" and \"x→y drops in [a, b)\" are directives of one " +
		"deterministic model, simnet.Schedule, which every static fault spec and the adaptive planner compile to; " +
		"the rest of simnet's models draw randomness (Loss, Lag) or stack others (Composite), and nil is fault-free. " +
		"A Fate or Down method declared outside internal/simnet, or a retired per-spec model coming back, would be " +
		"a second implementation of the schedule; burst loss, the one-way partition spec and explicit churn windows are retired forms."
	whyPoW = "pow.Solve is one crypto.SearchNonce call, which owns the framing, the midstate and the block kernel, " +
		"and one search loop (searchLanes) drives the kernel. A prefix hasher resumed per attempt, or pow reaching " +
		"into SHA-256 itself, would be a second search loop with its own per-attempt cost. So would a second " +
		"compression routine beside the eight-lane one, such as either SHA-NI kernel (single-lane or two-lane) " +
		"that the tree once had: crypto's assembly declares cpuid, xgetbv and blockAVX512x8, and the only other " +
		"assembly is pvss's Montgomery product, montMulADX, which reads its feature bits through crypto.HasADX."
	whyShared = "A key member answers every joiner's MEM_LIST with cn.S.Snapshot() and declares the directory's " +
		"running cn.S.ListSize(): walking the answer again is O(c) work per joiner. The intra and inter Algorithm 3 " +
		"payloads are proposed as pointers, so the endpoints of a committee on one consensus.VerifiedEchoes digest " +
		"a proposed payload once: a value literal would be digested by every member again."
	whyArtefact = "Every table and figure of the paper is a cycsim -artefact entry with a headline that " +
		"cmd/cycsim's TestClaims checks. A second printer binary or a paper benchmark in the root package " +
		"would describe an artefact again, with nothing asserting it."
)

var guards = []guard{
	{
		name:    "One layout per message: WireSize methods",
		reason:  whyLayout,
		paths:   []string{"*.go", ":!*_test.go", ":!bench"},
		find:    declares("WireSize"),
		fixture: file{"internal/ledger/size.go", "package ledger\n\nfunc (tx *Tx) WireSize() int { return 0 }\n"},
	},
	{
		name:    "One layout per message: payload Digest methods",
		reason:  whyLayout,
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    grep(`func \([^)]*\) Digest\(\) crypto\.Digest`),
		fixture: file{"internal/protocol/digest.go", "package protocol\n\nfunc (p *IntraPayload) Digest() crypto.Digest { return crypto.Digest{} }\n"},
	},
	{
		name:    "One layout per message: self-digesting payloads",
		reason:  whyLayout,
		paths:   []string{"internal/consensus/*.go", ":!*_test.go"},
		find:    grep(regexp.QuoteMeta("interface{ Digest() crypto.Digest }")),
		fixture: file{"internal/consensus/digester.go", "package consensus\n\ntype digester = interface{ Digest() crypto.Digest }\n"},
	},
	{
		name:    "One layout per message: transaction codec",
		reason:  whyLayout,
		paths:   []string{"*.go", ":!*_test.go"},
		find:    grep(`Opaque\(|DecodeTx|encodedSize`),
		fixture: file{"internal/ledger/codec.go", "package ledger\n\nfunc DecodeTx(b []byte) (*Tx, error) { return nil, nil }\n"},
	},
	{
		name: "One layout per message: a decoded transaction hashes nothing",
		reason: "A transaction's ID is computed on its first ID call and published through its atomic memo word, " +
			"so a block or list decodes without hashing bodies that most receivers never ask about. Coder.Consumed, " +
			"which let a layout hash the body it had just read, and the unsynchronised idSet flag, which made every " +
			"caller settle an ID before sharing the transaction, would bring both back.",
		paths:   []string{"internal/ledger/*.go", "internal/wire/*.go", ":!*_test.go"},
		find:    grepWords(`Consumed|idSet`),
		fixture: file{"internal/wire/coder.go", "package wire\n\nfunc (c *Coder) Consumed() []byte { return c.buf[:c.off] }\n"},
	},
	{
		name: "One layout per message: a held list is checked by its layout",
		reason: "A transaction list a message carries is held as the bytes it arrived as, and those bytes are " +
			"checked at delivery by the list's own layout in the Coder's checking walk (wire.Coder.Hold), " +
			"which refuses exactly what reading the list would. A hand-written skimmer that steps over the " +
			"list's bytes would be a second description of a transaction, free to accept what a reader then " +
			"cannot decode, and every relay, signature and digest copies the bytes it accepted.",
		paths: []string{"internal/wire/*.go", "internal/ledger/*.go", "internal/protocol/*.go", ":!*_test.go"},
		find: inspect(func(n ast.Node) bool {
			d, ok := n.(*ast.FuncDecl)
			return ok && (strings.Contains(d.Name.Name, "skim") || strings.Contains(d.Name.Name, "Skim"))
		}),
		fixture: file{"internal/protocol/skim.go", "package protocol\n\nfunc skimTxList(b []byte) (int, error) { return 0, nil }\n"},
	},
	{
		name:    "One layout per message: size mirrors",
		reason:  whyLayout,
		paths:   []string{"internal/protocol/messages_wire.go", "internal/consensus/wiresize.go", "internal/committee/wiresize.go"},
		find:    exists,
		fixture: file{"internal/consensus/wiresize.go", "package consensus\n"},
	},
	{
		name:    "One quorum check: per-voter echoes and second tags",
		reason:  whyQuorum,
		paths:   []string{"internal/*.go", ":!*_test.go"},
		find:    grep(`EchoSigs|func \(c \*Coder\) Alt\b`),
		fixture: file{"internal/wire/alt.go", "package wire\n\nfunc (c *Coder) Alt(tag Tag) {}\n"},
	},
	{
		name:    "One quorum check: majority loops",
		reason:  whyQuorum,
		paths:   []string{"internal/*.go", ":!*_test.go", ":!internal/consensus"},
		find:    grep(`VerifyAggregate\(|\.Bitmap\.(Validate|Count)\(|range [^{]*(Quorum|Approvals)\.Votes`),
		fixture: file{"internal/protocol/majority.go", "package protocol\n\nfunc majority(m *EvictReqMsg) (n int) {\n\tfor range m.Quorum.Votes {\n\t\tn++\n\t}\n\treturn n\n}\n"},
	},
	{
		name:    "One signing rule: hand-written preimages",
		reason:  whySigning,
		paths:   []string{"*.go", ":!*_test.go"},
		find:    grepWords(`SigParts|voteSigMsg|sigMsg|appendSigMsg|nodeIDBytes`),
		fixture: file{"internal/protocol/sigmsg.go", "package protocol\n\nfunc sigMsg(parts ...[]byte) []byte { return nil }\n"},
	},
	{
		name:    "One signing rule: one message per scheme call",
		reason:  whySigning,
		paths:   []string{"*.go", ":!*_test.go"},
		find:    schemeCalls,
		fixture: file{"internal/consensus/parts.go", "package consensus\n\nfunc signParts(p *Protocol, a, b []byte) []byte {\n\treturn p.Scheme.Sign(p.Keys, a, b)\n}\n"},
	},
	{
		name: "Signing bytes into reused buffers",
		reason: "Signing bytes grown from nil on every sign or verify were an eighth of a wide-cross round's " +
			"allocated objects. consensus.Sign and consensus.Verify build them in a pooled buffer, and " +
			"Quorum.Verify's msgAt reuses one across the voters of a call.",
		paths:   []string{"internal/*.go", ":!*_test.go"},
		find:    grep(`SigningBytes\(nil`),
		fixture: file{"internal/protocol/sign.go", "package protocol\n\nfunc signed(m any) []byte { return wire.SigningBytes(nil, m) }\n"},
	},
	{
		name:    "One fault schedule: fault models outside simnet",
		reason:  whyFaults,
		paths:   []string{"internal/*.go", ":!*_test.go", ":!internal/simnet"},
		find:    declares("Fate", "Down"),
		fixture: file{"internal/protocol/churn.go", "package protocol\n\ntype churn struct{}\n\nfunc (churn) Down(id int, at int64) bool { return false }\n"},
	},
	{
		name:    "One fault schedule: retired models and forms",
		reason:  whyFaults,
		paths:   []string{"*.go", ":!*_test.go"},
		find:    grepWords(`NewChurn|NewGrayFailure|NewOneWayPartition|NewPartition|NewPartitionAt|NoFaults|periodicChurn|NewBurstLoss|BurstLoss|OneWayPartitionSpec|BurstLossSpec|WindowSpec`),
		fixture: file{"internal/simnet/burst.go", "package simnet\n\nfunc NewBurstLoss(p float64) Model { return nil }\n"},
	},
	{
		name: "Silence is always on",
		reason: "Silence watchdogs and dropped-traffic accounting run on every network; a sweep that finds " +
			"nobody silent costs nothing, so a model that never acts changes no report. The engine asking whether " +
			"a fault model is installed would bring back a fault-free path and a fault-model path for one idea; " +
			"simnet.Network.Down is its one question to the model, and report.Dropped the round's.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    grep(`\be\.faults\b|InstallFaults|faults (==|!=) nil`),
		fixture: file{"internal/protocol/silence.go", "package protocol\n\nfunc (e *Engine) silent() bool { return e.faults != nil }\n"},
	},
	{
		name: "Accounting holds one round",
		reason: "simnet's per-phase accounting is a dense table per phase label, indexed by NodeID, and the " +
			"engine resets it at every round start (Metrics.ResetPhases), so labels are phase indices. A label " +
			"namespaced by round, or a (phase, node)-keyed map, would bring back accounting that grows with every round of the run.",
		paths:   []string{"internal/*.go", "cmd/*.go", ":!*_test.go"},
		find:    grep(`phaseLabel|phaseNode|r%03d|"r001/`),
		fixture: file{"internal/protocol/label.go", "package protocol\n\nfunc label(r int, p string) string { return fmt.Sprintf(\"r%03d/%s\", r, p) }\n"},
	},
	{
		name: "A phase is an index",
		reason: "A round's network phases are protocol.Phase, a small integer in round order: simnet.Metrics " +
			"labels traffic with it and keeps one table per label in a slice indexed by it, and the engine's stage " +
			"spans and the adversary's phase windows are arrays indexed by it. Names (Phases[p]) live only at the " +
			"boundaries a reader sees: hooks, reports and wire fields. A string label, a lookup by name, a " +
			"stageSpans map or a spare table list would bring back five places that each have to agree on a name.",
		paths: []string{"internal/simnet/*.go", "internal/protocol/*.go", ":!*_test.go"},
		find:  grep(`\b(SetPhase|setPhase|SentByNodes|PhaseDropped|lookup)\(\w+ string\b|\bstageSpans\s+map\b|\bspare\s+\[\]\*?phaseTable\b`),
		fixture: file{"internal/simnet/metrics.go", "package simnet\n\ntype Metrics struct {\n\tphase  string\n\tcur    *phaseTable\n" +
			"\ttables []*phaseTable\n\tspare  []*phaseTable\n}\n\nfunc (m *Metrics) SetPhase(phase string) { m.phase, m.cur = phase, nil }\n"},
	},
	{
		name: "One send path",
		reason: "Every message the simulator carries — an external Send or a handler's send, with or without " +
			"a fault model, audit or carrier — is routed by Network.send on the driving goroutine, in (ks, kc) order. " +
			"Per-lane outboxes, an exchange phase, or a switch on what is installed would bring back a second " +
			"executor whose equivalence every determinism argument then has to cover.",
		paths:   []string{"internal/simnet/*.go", ":!*_test.go"},
		find:    grep(`\bxout\b|exchangeLane|holdsSends|phaseExchange`),
		fixture: file{"internal/simnet/outbox.go", "package simnet\n\nfunc (n *Network) exchangeLane(l *lane) {}\n"},
	},
	{
		name: "One traffic ledger",
		reason: "simnet.Metrics counts what a report reads — sent per (phase, node), lost per phase, and the " +
			"sent, lost and late totals — and the driving goroutine writes it: sends on the send path, and the " +
			"traffic a step finds lost at a down node or late at the end of the step. Per-lane shards folded on a timer, per-tag " +
			"counters, or a receive table would bring back accounting that nothing reads. (internal/wire's byTag is " +
			"the codec registry's tag table, not a traffic counter.)",
		paths:   []string{"internal/*.go", ":!*_test.go", ":!internal/wire"},
		find:    grepWords(`laneShard|laneEntry|mergeLanes|mergeEvery|recordRecv|byTag`),
		fixture: file{"internal/simnet/shard.go", "package simnet\n\ntype laneShard struct{ sent []Counter }\n"},
	},
	{
		name: "One traffic ledger: owned by the driving goroutine",
		reason: "simnet.Metrics is written and read only by the goroutine that drives its Network — sends after " +
			"a step's barrier or between steps, a step's drops and late deliveries at its end, relabels between " +
			"drains — and lanes, which run handlers, never reach it. A lock in metrics.go would guard a sharing " +
			"that does not happen and cost every send an atomic operation.",
		paths:   []string{"internal/simnet/metrics.go"},
		find:    imports("sync"),
		fixture: file{"internal/simnet/metrics.go", "package simnet\n\nimport \"sync\"\n\ntype Metrics struct{ mu sync.Mutex }\n"},
	},
	{
		name: "One calendar queue: lanes run handlers",
		reason: "A Network has one clock, one calQueue and one event free list, and only its driving goroutine " +
			"pushes, pops or frees an event: lanes split a tick's batch to run handlers and nothing else. A queue in a " +
			"lane, or the per-lane pop, k-way merges and held sends that put the lanes' queues back in order " +
			"(popLane, minTick, renumber, cursors, drainHeld, xmsg, phasePop), would bring back a second copy of " +
			"the order that the one queue already keeps. A calendar slot links its events through event.next: " +
			"per-tick event slices ([][]*event) and a free list of them would keep each burst's capacity after " +
			"its tick is popped.",
		paths: []string{"internal/simnet/*.go", ":!*_test.go"},
		find: func(files []file) []string {
			hits := append(laneQueues(files), eventSlices(files)...)
			return append(hits, grepWords(`drainHeld|renumber|popLane|minTick|cursors|xmsg|phasePop`)(files)...)
		},
		fixture: file{"internal/simnet/calendar.go", "package simnet\n\ntype calQueue struct {\n\tbase      Time\n\tmask      Time\n" +
			"\tnbucket   Time\n\tinBuckets int\n\tbuckets   [][]*event\n\tfree      [][]*event\n\toverflow  eventHeap\n}\n"},
	},
	{
		name:    "One PoW search: SHA-NI kernels",
		reason:  whyPoW,
		paths:   []string{":!CHANGES.md", ":!ROADMAP.md"},
		find:    grepWords(`blockSHANI(x2)?|hasSHANI|shaniHost`),
		fixture: file{"internal/crypto/shani_amd64.go", "package crypto\n\nvar hasSHANI = false\n"},
	},
	{
		name:   "One PoW search: assembly symbols",
		reason: whyPoW,
		paths:  []string{"*.s"},
		find: grepExcept(`^[[:space:]]*TEXT`,
			`^internal/crypto/search_amd64\.s:[0-9]+:TEXT[[:space:]]+·(cpuid|xgetbv|blockAVX512x8)\(SB\)`,
			`^internal/pvss/mont_amd64\.s:[0-9]+:TEXT[[:space:]]+·montMulADX\(SB\)`),
		fixture: file{"internal/crypto/block_amd64.s", "#include \"textflag.h\"\n\nTEXT ·block(SB), NOSPLIT, $0-32\n\tRET\n"},
	},
	{
		name:    "One PoW search: prefix hasher",
		reason:  whyPoW,
		paths:   []string{"*.go", ":!*_test.go"},
		find:    grep(`PrefixHasher|SumWith`),
		fixture: file{"internal/crypto/prefix.go", "package crypto\n\ntype PrefixHasher struct{}\n"},
	},
	{
		name:    "One PoW search: pow hashes through crypto",
		reason:  whyPoW,
		paths:   []string{"internal/pow"},
		find:    grep(`sha256\.|UnmarshalBinary`),
		fixture: file{"internal/pow/direct.go", "package pow\n\nimport \"crypto/sha256\"\n\nvar h = sha256.New()\n"},
	},
	{
		name: "One round executor",
		reason: "Engine.RunRound calls a round's stages in order on its own goroutine; Params.Pipelined only " +
			"changes how their virtual spans add up into Duration. A dependency-graph scheduler, a prefetched next " +
			"batch, or a sort helper beside package slices would bring back a second way to run a round.",
		paths:   []string{"internal/*.go"},
		find:    grepWords(`runStages|stagePrefetch|nextBatch|SortNodeIDs`),
		fixture: file{"internal/protocol/stages.go", "package protocol\n\nfunc (e *Engine) runStages() {}\n"},
	},
	{
		name: "One run description",
		reason: "protocol.Params is the run's JSON document and sim.Config is that type: the behaviour, scheme " +
			"and transport are names resolved in protocol, and cycsim's flags are an overlay like -config. A " +
			"field-by-field copy, an inverse name table or a typed flag assignment would bring back a second " +
			"description to keep in step.",
		paths:   []string{"*.go", ":!*_test.go", ":!bench"},
		find:    grepWords(`configFromParams|schemeName|parseScheme|parseTransport|LiveCodec|applyIf`),
		fixture: file{"sim/names.go", "package sim\n\nfunc schemeName(s string) string { return s }\n"},
	},
	{
		name: "One way to set a run field",
		reason: "A run field is set by assigning a sim.Config field or by a JSON document (sim.FromJSON, " +
			"-config, a bench overlay); sim's options are FromConfig, FromJSON and WithObserver. A per-field " +
			"setter would be a second way to set it, with its own checks and its own sign conventions to keep " +
			"in step with the document.",
		paths:   []string{"*.go", "README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"},
		find:    grepWords(`With(Topology|Rounds|Workload|Adversary|Seed|Scheme|Pipeline|Transport|PowHardness|Recovery|PreScreenCross|ParallelBlockGen|AggregateCerts|Faults)`),
		fixture: file{"sim/setters.go", "package sim\n\nfunc WithSeed(seed int64) Option { return nil }\n"},
	},
	{
		name:    "A shared input is checked once per committee: MEM_LIST answers",
		reason:  whyShared,
		paths:   []string{"internal/committee/config.go"},
		find:    grep(`cn\.S\.Records\(\)|wire\.Size\(resp\)`),
		fixture: file{"internal/committee/config.go", "package committee\n\nfunc listSize(cn *ConfigNode) int { return len(cn.S.Records()) }\n"},
	},
	{
		name:    "A shared input is checked once per committee: payload literals",
		reason:  whyShared,
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    grep(`(^|[^&])(IntraPayload|InterPayload)\{`),
		fixture: file{"internal/protocol/payload.go", "package protocol\n\nvar proposed = IntraPayload{}\n"},
	},
	{
		name:    "One benchmark system",
		reason:  "The go test -bench → JSON trajectory was deleted in favour of bench/, driven by BENCHMARK.json.",
		paths:   []string{"BENCH_round.json", "tools/benchjson", "internal/perfbench"},
		find:    exists,
		fixture: file{"BENCH_round.json", "{}\n"},
	},
	{
		name:    "One command per paper artefact: printer binaries",
		reason:  whyArtefact,
		paths:   []string{"cmd/figures", "cmd/tables"},
		find:    exists,
		fixture: file{"cmd/figures/main.go", "package main\n\nfunc main() {}\n"},
	},
	{
		name:    "One command per paper artefact: paper benchmarks",
		reason:  whyArtefact,
		paths:   []string{"*_test.go", ":!*/*"},
		find:    grep(`func Benchmark(Table1|Table2|Fig4|Fig5|PartialSet|Scalability|LeaderFault|ReputationConvergence|Ablation)`),
		fixture: file{"paper_test.go", "package cycledger_test\n\nfunc BenchmarkTable1(b *testing.B) {}\n"},
	},
	{
		name: "No unsafe outside tests",
		reason: "What the engine knows about two values being one — a broadcast's payload, a frame body shared " +
			"by its recipients — it is told by the scheduler; nothing under internal/ or sim/ may find it out by " +
			"comparing interface words or headers through package unsafe.",
		paths:   []string{"internal/*.go", "sim/*.go", ":!*_test.go"},
		find:    imports("unsafe"),
		fixture: file{"internal/transport/alias.go", "package transport\n\nimport \"unsafe\"\n\nvar _ = unsafe.Pointer(nil)\n"},
	},
	{
		name: "Echoes carry no proposal",
		reason: "An Echo carries the leader's signature on the proposal's header, never the proposal: a member " +
			"without the payload fetches it once. A Propose field in a consensus message would ship the proposal " +
			"(c−1)² times a round again.",
		paths:   []string{"internal/consensus/consensus.go"},
		find:    grep(`Propose  *Propose`),
		fixture: file{"internal/consensus/consensus.go", "package consensus\n\ntype Echo struct {\n\tPropose Propose\n}\n"},
	},
	{
		name: "A handler keeps the message it was handed",
		reason: "A delivered message is never written, so a handler that stores one keeps the value it was " +
			"handed: the certificate carriers (IntraResultMsg, ScoreResultMsg, InterFwdMsg, InterResultMsg) travel " +
			"as pointers for it. A copy of a parameter whose address is then taken (mm := m, then &mm) moves every " +
			"stored message to the heap a second time; on wide-cross onInterResult's copies alone were 7 % of the bytes allocated.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    reboxes,
		fixture: file{"internal/protocol/node_phases.go", "package protocol\n\nfunc (n *Node) onInterResult(m InterResultMsg) {\n\tmm := m\n\tn.crInter[interKey(m.From, m.To)] = &mm\n}\n"},
	},
	{
		name: "The beacon reduces in Montgomery form",
		reason: "pvss's field elements are [12]uint64 Montgomery residues multiplied by mont.mul; math/big is " +
			"only for scalars mod Q and at the API boundary. A QuoRem reduction chain or its scratch buffers would " +
			"be a second field arithmetic beside it.",
		paths:   []string{"internal/pvss/*.go", ":!*_test.go"},
		find:    grep(`QuoRem|scratch`),
		fixture: file{"internal/pvss/reduce.go", "package pvss\n\nfunc reduce(x, q *big.Int) { x.QuoRem(x, q, new(big.Int)) }\n"},
	},
	{
		name: "The live transport is a codec crossing: no goroutines",
		reason: "transport.Live encodes a frame in Ship, on the serial send drain, and decodes it in Deliver, on the " +
			"lane that executes the delivery; nothing is held between the two. A go statement in the transport would " +
			"bring back a process per node beside the lanes: a hand-off that adds no concurrency and a place to keep frames.",
		paths:   []string{"internal/transport/*.go", ":!*_test.go"},
		find:    inspect(func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }),
		fixture: file{"internal/transport/pump.go", "package transport\n\nfunc pump(f func()) {\n\tgo f()\n}\n"},
	},
	{
		name: "The live transport is a codec crossing: retired surface",
		reason: "simnet.Carrier has two methods, Ship and Deliver, and a frame rides in its delivery event. Node " +
			"attachment, per-node mailboxes keyed by scheduling key, a carrier-run timer (Fire) or a Discard for " +
			"frames no delivery claims would be the retired store of frames beside the event that already holds one.",
		paths:   []string{"*.go", ":!*_test.go"},
		find:    grepWords(`Attach|Discard|Fire|msgKey|mailbox|liveNode`),
		fixture: file{"internal/transport/mailbox.go", "package transport\n\ntype msgKey struct{ ks uint64 }\n\nfunc (l *Live) Attach(id simnet.NodeID) {}\n"},
	},
	{
		name: "The engine runs a round on one goroutine",
		reason: "A round's stages, the PoW search included, run in order on the goroutine that calls RunRound; " +
			"Params.Parallelism sizes the simnet lanes only, and members validate the lists they vote on in the " +
			"handlers those lanes run. A go statement in the engine would bring back a CPU pool beside the lanes: " +
			"a second concurrency whose results must not depend on its width.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    inspect(func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }),
		fixture: file{"internal/protocol/pool.go", "package protocol\n\nfunc (e *Engine) fanOut(do func()) {\n\tgo do()\n}\n"},
	},
	{
		name: "A node keeps no decoded block",
		reason: "A node forwards the round block and records only that it arrived; a referee keeps the certified " +
			"block it re-serves, and RunRound releases it with the rest of the round state at the append. A block " +
			"field on Node would keep every live receiver's decoded copy, the largest thing a round retains.",
		paths:   []string{"internal/protocol/node.go"},
		find:    grep(`\bblock\s+\*Block\b`),
		fixture: file{"internal/protocol/node.go", "package protocol\n\ntype Node struct {\n\tblock *Block\n}\n"},
	},
	{
		name: "The chain keeps bytes",
		reason: "A committed block's transactions are stored as their list encoding, one pointer-free slice per " +
			"round, and decoded afresh for each reader (At, Verify). A chain type other than the read form Entry " +
			"that holds a ledger.Tx, or an Entry, would keep every committed transaction as three heap objects for " +
			"the whole run, the largest thing a run retained.",
		paths:   []string{"internal/chain/*.go", ":!*_test.go"},
		find:    heldTxs,
		fixture: file{"internal/chain/chain.go", "package chain\n\ntype Chain struct {\n\tmu      sync.RWMutex\n\tentries []Entry\n}\n"},
	},
	{
		name: "A report keeps no growing map",
		reason: "A run keeps every round's report, so a report holds fixed-size values and the block's paid list: " +
			"RoleTraffic and PhaseDropped are arrays indexed by Phase (and role), Rewards is the paid list the block " +
			"carries. Each writes the JSON of the map it replaced. A map field, or a field of a map type declared " +
			"beside it, is a hash table per report for the whole run; PhaseTraffic stays one until bench indexes it " +
			"by Phase.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    reportMaps,
		fixture: file{"internal/protocol/engine.go", "package protocol\n\ntype RoundReport struct {\n\tPhaseTraffic map[string]simnet.Counter\n\tRewards      map[string]uint64\n}\n"},
	},
	{
		name: "The evidence form is chosen in cast.go",
		reason: "Params.AggregateCerts decides whether a certificate carries per-voter or aggregate evidence, " +
			"and cast.go is where the engine reads it; every other stage builds and checks a consensus.Quorum " +
			"whatever its form.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go", ":!internal/protocol/cast.go"},
		find:    grep(`P.AggregateCerts`),
		fixture: file{"internal/protocol/evidence.go", "package protocol\n\nfunc (e *Engine) aggregate() bool { return e.P.AggregateCerts }\n"},
	},
	{
		name: "The report matrix is the one equivalence check",
		reason: "Two runs of one configuration that must report the same rounds are a cell of sim's " +
			"TestScenarioGolden: a row and a column, against the row's golden. A test that runs a row again to " +
			"compare it over lanes, the live transport or a mode the matrix has a column for is a second check " +
			"of the same cell, and these retired ones each were.",
		paths:   []string{"*_test.go"},
		find:    grep(`func Test(TransportParity(Byzantine|Aggregate|Faulted)?|PipelinedMatchesSequential|PipelinedDeterministicAcrossParallelism|AggregatePipelinedMatchesSequential|AdaptiveAdversaryDeterminism|AggregateReportsMatchBaseline)\b`),
		fixture: file{"sim/transport_parity_test.go", "package sim_test\n\nfunc TestTransportParity(t *testing.T) {}\n"},
	},
	{
		name: "A roster is indexed once",
		reason: "A roster's builder writes its four seat lists and index derives the seat table and every member " +
			"list from them, when the engine installs the roster and after ReplaceLeader. Lazy caches, the setters " +
			"that invalidated them and the warm-ups that rebuilt them ahead of the lanes were three ways of keeping " +
			"the same lists in step.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    declares("invalidate", "warm", "rewarmReplace", "setReferee", "setLeader", "addPartial", "addCommon"),
		fixture: file{"internal/protocol/roster.go", "package protocol\n\nfunc (r *Roster) warm() {}\n"},
	},
	{
		name: "One key directory",
		reason: "Every node's public key and the run's scheme live in one consensus.PKI that the engine builds with " +
			"the keys and hands each node; a signature is checked through it, which refuses an ID it has no key for. " +
			"An engine key table, a pkOf lookup or a scheme read off the engine would be a second directory, and the " +
			"old one handed an unknown ID's nil key to the scheme.",
		paths:   []string{"internal/protocol/*.go", ":!*_test.go"},
		find:    grep(`func \([^)]*\) pkOf\(|\beng\.(scheme|pkOf)\b|\be\.keys\b`),
		fixture: file{"internal/protocol/engine.go", "package protocol\n\nfunc (e *Engine) pkOf(id simnet.NodeID) crypto.PublicKey { return e.keys[id].PK }\n"},
	},
	{
		name: "Members validate what they vote on",
		reason: "A committee member validates the list it is handed against its shard view when it votes " +
			"(Node.voteOnTxs), and only the behaviours that read a verdict do. Verdicts the engine computed at " +
			"routing time, handed to a member whose list matched the engine's by pointer and computed again " +
			"when it did not, were a fast and a slow path for one decision, and made every member pay for a " +
			"verdict that lazy and yes voters never read.",
		paths: []string{"internal/protocol/*.go", ":!*_test.go"},
		find: inspect(func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				return slices.Contains([]string{"precomputeVerdicts", "honestVerdicts", "sameTxList"}, x.Name.Name)
			case *ast.StructType:
				return slices.ContainsFunc(x.Fields.List, func(f *ast.Field) bool {
					return slices.ContainsFunc(f.Names, func(id *ast.Ident) bool { return id.Name == "verdicts" })
				})
			}
			return false
		}),
		fixture: file{"internal/protocol/routing.go", "package protocol\n\ntype routedWork struct {\n\tverdicts map[uint64]reputation.VoteVector\n}\n\n" +
			"func sameTxList(a, b []*ledger.Tx) bool { return len(a) == len(b) }\n"},
	},
	{
		name: "Nodes know only what they were told",
		reason: "A node acts on what its round handed it: the run's parameters, the latency bounds, its UTXO view, " +
			"the round's echo sets and the roster that seated it, which its embedded view holds (node.go). A struct " +
			"field typed *Engine puts the whole engine back within a handler's reach, where a read of shared memory " +
			"stands in for a message the node never received; the engine reads nodes, nodes do not read the engine.",
		paths: []string{"internal/protocol/*.go", ":!*_test.go"},
		find: func(files []file) []string {
			srcs, hits := parse(files)
			for _, s := range srcs {
				ast.Inspect(s.File, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							if star, ok := f.Type.(*ast.StarExpr); ok && fmt.Sprint(star.X) == "Engine" {
								hits = append(hits, s.at(f))
							}
						}
					}
					return true
				})
			}
			return hits
		},
		fixture: file{"internal/protocol/node.go", "package protocol\n\ntype Node struct {\n\tID       simnet.NodeID\n\tName     string\n" +
			"\tKeys     crypto.KeyPair\n\tBehavior Behavior\n\n\tpki *consensus.PKI\n\teng *Engine\n}\n"},
	},
	{
		name: "A round's stages hand results forward",
		reason: "RunRound hands each stage's result to the next as a value: the PoW solutions to select, the next " +
			"roster and the ledger stage's valid list and fees to block. The engine keeps only state that outlives " +
			"a stage, and the round number is its roster's. A pending block between an assemble and a ledger stage, " +
			"engine fields that carried a stage's result or copied roster.Round, a refereeHas beside refereeRecord, " +
			"or a second cross-shard classification of a candidate that routing already filed would be second " +
			"copies of one round.",
		paths: []string{"internal/protocol/*.go", ":!*_test.go"},
		find: func(files []file) []string {
			retired := []string{"pendingBlock", "stageAssemble", "refereeHas"}
			fields := []string{"round", "powSols", "pending", "nextRoster"}
			srcs, hits := parse(files)
			for _, s := range srcs {
				ast.Inspect(s.File, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.FuncDecl:
						if slices.Contains(retired, x.Name.Name) {
							hits = append(hits, s.at(x))
						}
					case *ast.TypeSpec:
						if slices.Contains(retired, x.Name.Name) {
							hits = append(hits, s.at(x))
						}
						if st, ok := x.Type.(*ast.StructType); ok && x.Name.Name == "Engine" {
							for _, f := range st.Fields.List {
								if slices.ContainsFunc(f.Names, func(id *ast.Ident) bool { return slices.Contains(fields, id.Name) }) {
									hits = append(hits, s.at(f))
								}
							}
						}
					case *ast.CallExpr:
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "IsCrossShard" && fmt.Sprint(sel.X) == "ledger" {
							hits = append(hits, s.at(x))
						}
					}
					return true
				})
			}
			return hits
		},
		fixture: file{"internal/protocol/pipeline.go", "package protocol\n\ntype Engine struct {\n\troster *Roster\n\tround  uint64\n}\n\n" +
			"type pendingBlock struct{ valid []*ledger.Tx }\n\nfunc (e *Engine) stageAssemble() {}\n\n" +
			"func (e *Engine) cross(tx *ledger.Tx) bool { return ledger.IsCrossShard(tx, e.utxo, e.roster.M) }\n"},
	},
	{
		name: "The scenario registry is a fixed table",
		reason: "sim's init registers the built-in scenarios once; a project-local experiment is a Scenario value " +
			"or a run document. A Register function would bring back a registry that changes after init, and the " +
			"lock it needs.",
		paths: []string{"sim/*.go", ":!*_test.go"},
		find: inspect(func(n ast.Node) bool {
			d, ok := n.(*ast.FuncDecl)
			return ok && d.Recv == nil && d.Name.Name == "Register"
		}),
		fixture: file{"sim/scenario.go", "package sim\n\nfunc Register(s Scenario) error { return nil }\n"},
	},
	{
		name: "A sweep metric is one row",
		reason: "A sweep metric is one metricDefs row in sim/sweep: its name, whose place fixes its column, and its " +
			"value in one round. Summarize averages every row in one loop, and Metrics holds Rounds and one mean per " +
			"row, written under the row's name. A Metrics field per metric, or a report field read in Summarize, is a " +
			"second place to keep in step with the table: the struct field, the row, and Summarize's accumulate and " +
			"divide lines were four.",
		paths: []string{"sim/sweep/*.go", ":!*_test.go"},
		find:  sweepMetricRows,
		fixture: file{"sim/sweep/aggregate.go", "package sweep\n\ntype Metrics struct {\n\tRounds int\n\tTxPerRound float64\n" +
			"\tIntraPerRound float64\n\tCrossPerRound float64\n\tRejectedPerRound float64\n\tScreenedPerRound float64\n" +
			"\tRecoveriesPerRound float64\n\tFeesPerRound float64\n\tMsgsPerRound float64\n\tBytesPerRound float64\n" +
			"\tTicksPerRound float64\n\tDroppedPerRound float64\n\tDroppedBytesPerRound float64\n\tLatePerRound float64\n" +
			"\tTimeoutsPerRound float64\n}\n\nfunc Summarize(reports []*sim.RoundReport) Metrics {\n\tvar m Metrics\n" +
			"\tfor _, r := range reports {\n\t\tm.TxPerRound += float64(r.Throughput())\n\t}\n\treturn m\n}\n"},
	},
	{
		name: "Test-only surface stays in tests",
		reason: "A function only tests call is test code: it lives in its package's tests or export_test.go, " +
			"not in the production surface. These were exported from production files with no non-test caller.",
		paths:   []string{"*.go", ":!*_test.go", ":!bench"},
		find:    declares("Tip", "Decided", "ResetID", "CommitmentToSecret", "Counters", "SpendableCount", "Delivered"),
		fixture: file{"internal/chain/tip.go", "package chain\n\nfunc (c *Chain) Tip() (Header, bool) { return Header{}, false }\n"},
	},
	{
		name: "Doc comments",
		reason: "sim, sim/sweep, internal/wire and internal/transport are the documented surface: every " +
			"package, and every exported function, method on an exported receiver, type, var and const, carries a doc comment.",
		paths:   []string{"sim/*.go", "internal/wire/*.go", "internal/transport/*.go", ":!*_test.go"},
		find:    undocumented,
		fixture: file{"sim/undocumented.go", "package sim\n\nfunc F() {}\n\ntype T struct{}\n\nfunc (T) M() {}\n\ntype t struct{}\n\nfunc (t) M() {}\n\nvar V = 1\n\nconst C = 1\n"},
	},
	{
		name:    "Doc comments: one checker",
		reason:  "The doc-comment check is the \"Doc comments\" row of this table, run by go test.",
		paths:   []string{"tools/doccheck"},
		find:    exists,
		fixture: file{"tools/doccheck/main.go", "package main\n\nfunc main() {}\n"},
	},
	{
		name: "The examples are checked",
		reason: "The examples are sim's Example functions (sim/example_test.go), whose Output blocks go test " +
			"compares; a program under examples/ prints what nothing asserts.",
		paths:   []string{"examples"},
		find:    exists,
		fixture: file{"examples/quickstart/main.go", "package main\n\nfunc main() {}\n"},
	},
}

// guardFile is this file, which holds every retired form as a fixture.
const guardFile = "guards_test.go"

func TestGuards(t *testing.T) {
	paths, err := walk(".")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{} // each file is read once across the rows
	read := func(p string) (string, error) {
		if src, ok := srcs[p]; ok {
			return src, nil
		}
		b, err := os.ReadFile(filepath.FromSlash(p))
		if err != nil {
			return "", err
		}
		if bytes.IndexByte(b[:min(len(b), 8000)], 0) >= 0 {
			// A binary file, such as the test binary go test -cpuprofile
			// leaves here, holds no source form; git grep -I skips it too.
			b = nil
		}
		srcs[p] = string(b)
		return srcs[p], nil
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			if g.fixture.path == "" {
				t.Fatal("the row has no fixture")
			}
			fixture := func(string) (string, error) { return g.fixture.src, nil }
			if hits := g.run([]string{g.fixture.path}, fixture); len(hits) == 0 {
				t.Errorf("the row does not fire on its fixture %s", g.fixture.path)
			}
			hits := g.run(paths, read)
			if len(hits) > 0 {
				t.Errorf("%s\n\t%s", g.reason, strings.Join(hits, "\n\t"))
			}
		})
	}
}

// walk lists the files under root, slash-separated and relative to it,
// skipping .git and the guard file.
func walk(root string) (paths []string, err error) {
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case !d.IsDir() && rel != guardFile:
			paths = append(paths, rel)
		}
		return nil
	})
	return paths, err
}

// run applies the row to the files among paths that its pathspecs select.
func (g guard) run(paths []string, read func(string) (string, error)) []string {
	var files []file
	var hits []string
	for _, p := range paths {
		if !selects(g.paths, p) {
			continue
		}
		src, err := read(p)
		if err != nil {
			hits = append(hits, fmt.Sprintf("%s: %v", p, err))
			continue
		}
		files = append(files, file{p, src})
	}
	return append(hits, g.find(files)...)
}

// selects reports whether the pathspecs select p, as git grep's do.
func selects(specs []string, p string) bool {
	in, positive := false, false
	for _, s := range specs {
		if ex, ok := strings.CutPrefix(s, ":!"); ok {
			if pathspec(ex, p) {
				return false
			}
			continue
		}
		positive = true
		in = in || pathspec(s, p)
	}
	return in || !positive
}

// pathspec matches one git pathspec: a glob whose "*" matches any run of
// characters, "/" included, or, without a "*", the path itself or a
// directory above it.
func pathspec(pattern, p string) bool {
	if !strings.Contains(pattern, "*") {
		return p == pattern || strings.HasPrefix(p, pattern+"/")
	}
	return glob(pattern, p)
}

// glob matches pattern against all of p, a "*" matching any run of characters.
func glob(pattern, p string) bool {
	head, rest, star := strings.Cut(pattern, "*")
	if !star {
		return p == pattern
	}
	if !strings.HasPrefix(p, head) {
		return false
	}
	for i := len(head); i <= len(p); i++ {
		if glob(rest, p[i:]) {
			return true
		}
	}
	return false
}

// grep reports every line that re matches, as git grep -nE does.
func grep(re string) func([]file) []string {
	r := regexp.MustCompile(re)
	return func(files []file) (hits []string) {
		for _, f := range files {
			for i, line := range strings.Split(f.src, "\n") {
				if r.MatchString(line) {
					hits = append(hits, fmt.Sprintf("%s:%d:%s", f.path, i+1, line))
				}
			}
		}
		return hits
	}
}

// grepWords is grep of whole words, as git grep -nwE.
func grepWords(re string) func([]file) []string {
	return grep(`\b(?:` + re + `)\b`)
}

// grepExcept is grep without the hits ("path:line:text") that one of
// allowed matches.
func grepExcept(re string, allowed ...string) func([]file) []string {
	all := grep(re)
	var allow []*regexp.Regexp
	for _, a := range allowed {
		allow = append(allow, regexp.MustCompile(a))
	}
	return func(files []file) (hits []string) {
		for _, h := range all(files) {
			if !slices.ContainsFunc(allow, func(a *regexp.Regexp) bool { return a.MatchString(h) }) {
				hits = append(hits, h)
			}
		}
		return hits
	}
}

// exists reports every file selected: the row's paths are retired.
func exists(files []file) (hits []string) {
	for _, f := range files {
		hits = append(hits, f.path)
	}
	return hits
}

// source is one parsed Go file.
type source struct {
	*ast.File
	fset  *token.FileSet
	lines []string
	path  string
}

// parse parses files; a file that does not parse is a hit.
func parse(files []file) (srcs []source, hits []string) {
	for _, f := range files {
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, f.path, f.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			hits = append(hits, err.Error())
			continue
		}
		srcs = append(srcs, source{af, fset, strings.Split(f.src, "\n"), f.path})
	}
	return srcs, hits
}

// at is n's line in git grep -n form.
func (s source) at(n ast.Node) string {
	line := s.fset.Position(n.Pos()).Line
	return fmt.Sprintf("%s:%d:%s", s.path, line, s.lines[line-1])
}

// inspect reports every node of files that fires says breaks the rule.
func inspect(fires func(ast.Node) bool) func([]file) []string {
	return func(files []file) []string {
		srcs, hits := parse(files)
		for _, s := range srcs {
			ast.Inspect(s.File, func(n ast.Node) bool {
				if n != nil && fires(n) {
					hits = append(hits, s.at(n))
				}
				return true
			})
		}
		return hits
	}
}

// declares reports a method declared with one of names.
func declares(names ...string) func([]file) []string {
	return inspect(func(n ast.Node) bool {
		d, ok := n.(*ast.FuncDecl)
		return ok && d.Recv != nil && slices.Contains(names, d.Name.Name)
	})
}

// imports reports an import of pkg.
func imports(pkg string) func([]file) []string {
	return inspect(func(n ast.Node) bool {
		s, ok := n.(*ast.ImportSpec)
		return ok && s.Path.Value == `"`+pkg+`"`
	})
}

// schemeCalls reports a signature scheme's Sign handed more than a key and
// a message, its Verify handed more than a key, a signature and a message,
// or either handed a spread list. The scheme is whatever the call's
// receiver names *scheme or *Scheme.
var schemeCalls = inspect(func(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(strings.ToLower(lastName(sel.X)), "scheme") {
		return false
	}
	switch sel.Sel.Name {
	case "Sign":
		return call.Ellipsis.IsValid() || len(call.Args) > 2
	case "Verify":
		return call.Ellipsis.IsValid() || len(call.Args) > 3
	}
	return false
})

// laneQueues reports a field of type calQueue, or a pointer to one, in a
// struct named lane.
var laneQueues = inspect(func(n ast.Node) bool {
	ts, ok := n.(*ast.TypeSpec)
	if !ok || ts.Name.Name != "lane" {
		return false
	}
	st, ok := ts.Type.(*ast.StructType)
	return ok && slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool {
		t := f.Type
		if p, ok := t.(*ast.StarExpr); ok {
			t = p.X
		}
		return lastName(t) == "calQueue"
	})
})

// eventSlices reports a field of type [][]*event.
var eventSlices = inspect(func(n ast.Node) bool {
	f, ok := n.(*ast.Field)
	if !ok {
		return false
	}
	outer, ok := f.Type.(*ast.ArrayType)
	if !ok {
		return false
	}
	inner, ok := outer.Elt.(*ast.ArrayType)
	if !ok {
		return false
	}
	p, ok := inner.Elt.(*ast.StarExpr)
	return ok && lastName(p.X) == "event"
})

// heldTxs reports a struct type other than Entry with a field whose type
// names ledger.Tx or Entry, in any shape: a pointer, a slice, a map.
var heldTxs = inspect(func(n ast.Node) bool {
	ts, ok := n.(*ast.TypeSpec)
	if !ok || ts.Name.Name == "Entry" {
		return false
	}
	st, ok := ts.Type.(*ast.StructType)
	return ok && slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool {
		holds := false
		ast.Inspect(f.Type, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				holds = holds || lastName(x.X) == "ledger" && x.Sel.Name == "Tx"
				return false
			case *ast.Ident:
				holds = holds || x.Name == "Entry"
			}
			return true
		})
		return holds
	})
})

// reboxes reports the address of a copy of a function's parameter (x := m,
// then &x), which puts the value the function was handed on the heap again.
func reboxes(files []file) []string {
	srcs, hits := parse(files)
	for _, s := range srcs {
		for _, d := range s.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := map[string]bool{}
			for _, f := range fd.Type.Params.List {
				for _, id := range f.Names {
					params[id.Name] = true
				}
			}
			copies := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if x.Tok == token.DEFINE && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
						l, lok := x.Lhs[0].(*ast.Ident)
						r, rok := x.Rhs[0].(*ast.Ident)
						if lok && rok && params[r.Name] {
							copies[l.Name] = true
						}
					}
				case *ast.UnaryExpr:
					if id, ok := x.X.(*ast.Ident); ok && x.Op == token.AND && copies[id.Name] {
						hits = append(hits, s.at(x))
					}
				}
				return true
			})
		}
	}
	return hits
}

// reportMaps reports a field of RoundReport other than PhaseTraffic whose
// type is or holds a map, or names a map type declared among files.
func reportMaps(files []file) []string {
	srcs, hits := parse(files)
	mapTypes := map[string]bool{}
	for _, s := range srcs {
		ast.Inspect(s.File, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				_, isMap := ts.Type.(*ast.MapType)
				mapTypes[ts.Name.Name] = mapTypes[ts.Name.Name] || isMap
			}
			return true
		})
	}
	for _, s := range srcs {
		ast.Inspect(s.File, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "RoundReport" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, f := range st.Fields.List {
				if len(f.Names) == 1 && f.Names[0].Name == "PhaseTraffic" {
					continue
				}
				holds := false
				ast.Inspect(f.Type, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.MapType:
						holds = true
					case *ast.Ident:
						holds = holds || mapTypes[x.Name]
					}
					return !holds
				})
				if holds {
					hits = append(hits, s.at(f))
				}
			}
			return false
		})
	}
	return hits
}

// sweepMetricRows reports a field of Metrics other than Rounds and means,
// and a selector in Summarize on a report: on a parameter, an element of
// one, or the variable that ranges over one.
func sweepMetricRows(files []file) []string {
	srcs, hits := parse(files)
	for _, s := range srcs {
		ast.Inspect(s.File, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok && x.Name.Name == "Metrics" {
					for _, f := range st.Fields.List {
						if len(f.Names) != 1 || !slices.Contains([]string{"Rounds", "means"}, f.Names[0].Name) {
							hits = append(hits, s.at(f))
						}
					}
				}
			case *ast.FuncDecl:
				if x.Name.Name != "Summarize" || x.Body == nil {
					return true
				}
				reports := map[string]bool{}
				for _, f := range x.Type.Params.List {
					for _, id := range f.Names {
						reports[id.Name] = true
					}
				}
				ast.Inspect(x.Body, func(n ast.Node) bool {
					switch y := n.(type) {
					case *ast.RangeStmt:
						if v, ok := y.Value.(*ast.Ident); ok && reports[fmt.Sprint(y.X)] {
							reports[v.Name] = true
						}
					case *ast.SelectorExpr:
						r := y.X
						if ix, ok := r.(*ast.IndexExpr); ok {
							r = ix.X
						}
						if id, ok := r.(*ast.Ident); ok && reports[id.Name] {
							hits = append(hits, s.at(y))
						}
					}
					return true
				})
			}
			return true
		})
	}
	return hits
}

// lastName is the last identifier of x, a name or a selector, or "".
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// undocumented reports, per directory, an exported function, method on an
// exported receiver, type, var or const without a doc comment, and a
// package without a package doc comment.
func undocumented(files []file) []string {
	srcs, hits := parse(files)
	var dirs []string
	documented := map[string]bool{}
	for _, s := range srcs {
		dir := path.Dir(s.path)
		if _, ok := documented[dir]; !ok {
			dirs = append(dirs, dir)
		}
		documented[dir] = documented[dir] || s.Doc != nil
		report := func(pos token.Pos, format string, args ...any) {
			hits = append(hits, fmt.Sprintf("%s: %s", s.fset.Position(pos), fmt.Sprintf(format, args...)))
		}
		for _, decl := range s.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && exportedReceiver(d.Recv) && d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
							report(sp.Pos(), "exported type %s has no doc comment", sp.Name.Name)
						}
					case *ast.ValueSpec:
						if d.Doc != nil || sp.Doc != nil {
							continue
						}
						for _, name := range sp.Names {
							if name.IsExported() {
								report(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
							}
						}
					}
				}
			}
		}
	}
	for _, dir := range dirs {
		if !documented[dir] {
			hits = append(hits, dir+": package has no package doc comment")
		}
	}
	return hits
}

// exportedReceiver reports whether the receiver list (nil for plain
// functions) names an exported type; methods on unexported types are not
// part of the documented surface.
func exportedReceiver(recv *ast.FieldList) bool {
	if recv == nil {
		return true
	}
	for _, field := range recv.List {
		t := field.Type
		for {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
			case *ast.IndexExpr: // generic receiver T[P]
				t = x.X
			case *ast.IndexListExpr: // generic receiver T[P1, P2]
				t = x.X
			case *ast.Ident:
				return x.IsExported()
			default:
				return false
			}
		}
	}
	return false
}
