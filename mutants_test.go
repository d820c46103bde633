package cycledger_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A mutant is a deliberate bug and the tests that must see it: TestMutants
// builds the tree with file's one occurrence of old replaced by new and runs
// go test -run run over pkgs. A killed mutant must fail that run. A
// surviving one must pass it: it records a blind spot of the suite, and the
// change that closes the blind spot flips it to killed. A flip the other
// way loosens a check.
type mutant struct {
	name     string
	file     string // slash-separated, relative to the module root
	old, new string
	pkgs     []string
	run      string
	env      []string // extra environment, KEY=value
	flags    []string // extra go test flags
	want     string   // "killed" or "survives"
	reason   string
}

var mutants = []mutant{
	{
		name: "the lane count seeds the delay draw",
		file: "internal/simnet/simnet.go",
		old:  "d := n.latency.DrawKeyed(n.seed, ks, kc, msg.From, msg.To)",
		new:  "d := n.latency.DrawKeyed(n.seed+uint64(len(n.lanes)-1), ks, kc, msg.From, msg.To)",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^default$/^(golden|lanes)$",
		want: "killed",
		reason: "A message's delay is drawn from its key and the seed alone, so any lane count runs the same " +
			"schedule: the lanes column.",
	},
	{
		name: "the first Yes vote decoded reads No",
		file: "internal/protocol/messages.go",
		old:  "\t\t*v = reputation.Vote(b) - 1\n\t})\n}\n",
		new: "\t\t*v = reputation.Vote(b) - 1\n\t\tif *v == reputation.Yes && !flipped {\n\t\t\tflipped, *v = true, reputation.No\n" +
			"\t\t}\n\t})\n}\n\nvar flipped bool\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^partition-heal$/^(golden|live)$",
		want: "killed",
		reason: "Only the live transport decodes what it sends, and a decoded message must equal the one sent: " +
			"the live column, on the row whose run reads a vote vector off the wire.",
	},
	{
		name:   "the pipelined duration is the plain sum",
		file:   "internal/protocol/pipeline.go",
		old:    "\te.prevBlock = s[PhaseBlock]\n\treturn dur\n",
		new:    "\te.prevBlock = s[PhaseBlock]\n\treturn s[PhaseConfig] + s[PhaseSemiCommit] + processing + election + s[PhaseBlock]\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^(golden|pipelined)$",
		want:   "killed",
		reason: "The §IV pipelined schedule overlaps stages, so its round is strictly shorter: the pipelined column.",
	},
	{
		name:   "one fee unit moves from payee 0 to payee 1",
		file:   "internal/reputation/reputation.go",
		old:    "\t\tout[fracs[i%uint64(n)].idx]++\n\t}\n\treturn out\n",
		new:    "\t\tout[fracs[i%uint64(n)].idx]++\n\t}\n\tif n > 1 && out[0] > 0 {\n\t\tout[0], out[1] = out[0]-1, out[1]+1\n\t}\n\treturn out\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^golden$",
		want:   "killed",
		reason: "The §IV-G reward split is pinned by every golden that pays fees.",
	},
	{
		name: "the live transport hands over the sender's payload",
		file: "internal/transport/live.go",
		old:  "\tl.last = f\n\treturn l.last\n",
		new:  "\t_ = f\n\tl.last = msg.Payload\n\treturn l.last\n",
		pkgs: []string{"./internal/transport"},
		run:  "TestLivePayloadIsolation",
		want: "killed",
		reason: "A live delivery runs its handler only on a payload decoded from its frame: one that bypassed " +
			"the codec runs none.",
	},
	{
		name:   "every copy of a fan-out is encoded again",
		file:   "internal/transport/live.go",
		old:    "\tif same {\n\t\treturn l.last\n\t}\n",
		new:    "",
		pkgs:   []string{"./internal/transport", "./internal/protocol"},
		run:    "TestLiveFanoutEncodesOnce|TestLiveEncodesOncePerFanout",
		want:   "killed",
		reason: "A broadcast is encoded once, and its copies share the frame.",
	},
	{
		name:   "a frame may leave body bytes unread",
		file:   "internal/transport/frame.go",
		old:    "\tif used != len(body) {\n",
		new:    "\tif used > len(body) {\n",
		pkgs:   []string{"./internal/transport"},
		run:    "FuzzParseFrame",
		want:   "killed",
		reason: "A frame holds one payload and nothing after it: FuzzParseFrame's trailing-byte seeds.",
	},
	{
		name:   "a delivery skips the frame header check",
		file:   "internal/transport/live.go",
		old:    "\tif hd.from != msg.From || string(hd.tag) != msg.Tag || hd.size != msg.Size {\n",
		new:    "\tif false {\n",
		pkgs:   []string{"./internal/transport"},
		run:    "TestLiveCorruptFramePanics",
		want:   "killed",
		reason: "A frame whose sender, tag or declared size disagrees with its delivery runs no handler.",
	},
	{
		name: "a skipped event takes no seq",
		file: "internal/simnet/simnet.go",
		old: "\tfor i, sp := range n.spans {\n\t\tif sp.lane < 0 {\n\t\t\tcontinue\n\t\t}\n" +
			"\t\tseq, out := base+uint64(i), n.lanes[sp.lane].ctx.out[sp.lo:sp.hi]\n",
		new: "\tran := uint64(0)\n\tfor _, sp := range n.spans {\n\t\tif sp.lane < 0 {\n\t\t\tcontinue\n\t\t}\n" +
			"\t\tseq, out := base+ran, n.lanes[sp.lane].ctx.out[sp.lo:sp.hi]\n\t\tran++\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^small-faulted$/^golden$",
		want: "killed",
		reason: "Every popped event takes the seq of its batch position, run or skipped for a down node, so the " +
			"keys of what it sends do not depend on who is down at the same tick.",
	},
	{
		name: "effects apply lane by lane",
		file: "internal/simnet/simnet.go",
		old:  "\tfor i, sp := range n.spans {\n",
		new: "\tfor _, i := range func() (o []int32) {\n\t\tfor _, ln := range n.lanes {\n\t\t\to = append(o, ln.pos...)\n" +
			"\t\t}\n\t\treturn o\n\t}() {\n\t\tsp := n.spans[i]\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^(lossy|small-faulted)$/^(golden|lanes)$",
		want: "killed",
		reason: "A step's effects apply in batch order whatever lane ran them, so a fault model draws in the same " +
			"order at any lane count: the lanes column, on the rows that lose messages.",
	},
	{
		name:   "a lane takes events by batch position",
		file:   "internal/simnet/simnet.go",
		old:    "\t\tl := int(ev.node) % k\n",
		new:    "\t\tl := i % k\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^small$/",
		env:    []string{"GOMAXPROCS=2"},
		flags:  []string{"-race"},
		want:   "killed",
		reason: "A node's events run on one lane, so no two lanes run one node's handlers at once: the race detector.",
	},
	{
		name:   "a popped tick stays linked in its slot",
		file:   "internal/simnet/calendar.go",
		old:    "\t\t*s = tick{}\n",
		new:    "",
		pkgs:   []string{"./internal/simnet"},
		run:    "^TestCalendarQueueMatchesHeapOrder$",
		want:   "killed",
		reason: "popBatch unlinks the tick it pops, so the ring's next revolution finds that slot empty: the heap oracle.",
	},
	{
		name:   "the chain records this round's randomness",
		file:   "internal/protocol/phases.go",
		old:    "e.chain.Append(e.roster.Round, blk.Randomness, blk.Fees, valid)",
		new:    "e.chain.Append(e.roster.Round, e.roster.Randomness, blk.Fees, valid)",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^golden$",
		want:   "killed",
		reason: "A block carries the next round's randomness, and a report's Block hash pins the header.",
	},
	{
		name:   "the transaction root hashes a block's IDs in reverse order",
		file:   "internal/chain/chain.go",
		old:    "\tfor i, tx := range txs {\n\t\tids[i] = tx.ID()\n",
		new:    "\tfor i := range txs {\n\t\tids[i] = txs[len(txs)-1-i].ID()\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^golden$",
		want:   "killed",
		reason: "A header's transaction root covers the block's order, and a report's Block hash pins the header.",
	},
	{
		name: "the pipelined duration is the plain sum under aggregate certificates",
		file: "internal/protocol/pipeline.go",
		old:  "\te.prevBlock = s[PhaseBlock]\n\treturn dur\n",
		new: "\te.prevBlock = s[PhaseBlock]\n\tif e.P.AggregateCerts {\n" +
			"\t\treturn s[PhaseConfig] + s[PhaseSemiCommit] + processing + election + s[PhaseBlock]\n\t}\n\treturn dur\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^(golden|aggregate|aggregate-pipelined-lanes)$",
		want:   "killed",
		reason: "The pipelined schedule shortens an aggregate round too: the aggregate-pipelined-lanes column.",
	},
	{
		name:   "an echo memo hit skips the signature bytes",
		file:   "internal/consensus/echoes.go",
		old:    "hit = x.set && x.echoer == e.Echoer && x.digest == e.Digest && x.sig == string(e.Sig)",
		new:    "hit = x.set",
		pkgs:   []string{"./internal/consensus"},
		run:    "TestVerifiedEchoesAreExact",
		want:   "killed",
		reason: "An echo held at (sn, position) is a hit only for the same echoer, digest and signature bytes.",
	},
	{
		name: "ReplaceLeader does not re-index",
		file: "internal/protocol/roster.go",
		old:  "\tslices.Sort(r.Commons[k])\n\tr.index()\n",
		new:  "\tslices.Sort(r.Commons[k])\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^adaptive-full$/^golden$",
		want: "killed",
		reason: "linkClass reads roles from the seat table on every send, so a §V-D recovery reclassifies the " +
			"evicted leader's links for the rest of the round, and the re-run step reaches the committee through " +
			"its re-indexed lists. adaptive-full's round 1 has four evictions.",
	},
	{
		name: "the installed roster is not indexed",
		file: "internal/protocol/engine.go",
		old:  "\te.roster = next\n\te.roster.index()\n",
		new:  "\te.roster = next\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^default$/^golden$",
		want: "killed",
		reason: "Nothing builds on read: a roster that is not indexed at install has no seat table or member " +
			"lists, and round 2 of the default golden fails on the first committee it reads.",
	},
	{
		name: "the list decoder points every entry at one slab Tx",
		file: "internal/ledger/list.go",
		old:  "\t\t\t*tx, slab = &slab[0], slab[1:]\n",
		new:  "\t\t\t*tx = &slab[0]\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^default$/^(golden|live)$",
		want: "killed",
		reason: "Every decoded list's entries would all be its last transaction. Only the live transport decodes " +
			"what it sends: the live column.",
	},
	{
		name: "the checking walk skips a transaction's outputs",
		file: "internal/wire/coder.go",
		old:  "\t\t\telem(c, &(*p)[:1][0])\n",
		new:  "\t\t\tif min != 4+8 {\n\t\t\t\telem(c, &(*p)[:1][0])\n\t\t\t}\n",
		pkgs: []string{"./internal/wire"},
		run:  "TestDecodeRejectsJunk",
		want: "killed",
		reason: "A held list is checked at Decode by walking every entry of every list in it; an output entry is " +
			"the one a checked list holds that takes at least 4+8 bytes. Walked past, the check ends inside the " +
			"list, and the intact block and list frames the junk cases are cut from no longer decode.",
	},
	{
		name: "phaseBlock ships the score list unsorted",
		file: "internal/protocol/phases.go",
		old:  "\tslices.SortFunc(scores, func(a, b Score) int { return strings.Compare(a.Name, b.Name) })\n",
		new:  "\t_ = strings.Compare\n",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^default$/^(golden|live)$",
		want: "killed",
		reason: "The score list leaves in the reputation map's order. A block's lists decode only when their names " +
			"strictly ascend, so the live column's receivers refuse the block and the run ends in an error.",
	},
	{
		name:   "the round-end release is skipped",
		file:   "internal/protocol/engine.go",
		old:    "\t\tn.roundState = roundState{}\n",
		new:    "\t\t_ = n\n",
		pkgs:   []string{"./internal/protocol"},
		run:    "TestRoundStateReleasedAtAppend",
		want:   "killed",
		reason: "Every node would keep its last round's maps, lists and referee records until the next round's reset.",
	},
	{
		name: "the release runs before phaseBlock's delivery count",
		file: "internal/protocol/phases.go",
		old:  "\tfor _, n := range e.nodes {\n\t\tif n.gotBlock ||",
		new:  "\tfor _, n := range e.nodes {\n\t\tn.roundState = roundState{}\n\t}\n\tfor _, n := range e.nodes {\n\t\tif n.gotBlock ||",
		pkgs: []string{"./sim"},
		run:  "TestScenarioGolden/^default$/^golden$",
		want: "killed",
		reason: "The delivery count reads which nodes got the block, so a release ahead of it counts none: every " +
			"golden's BlockDelivered falls to zero.",
	},
	{
		name:   "PKI.Verify hands an unknown ID's nil key to the scheme",
		file:   "internal/consensus/scheme.go",
		old:    "\tif pk := p.PK(id); pk != nil {\n",
		new:    "\tif pk := p.PK(id); true {\n",
		pkgs:   []string{"./internal/consensus"},
		run:    "TestUnknownSignersRefused/per-voter",
		want:   "killed",
		reason: "HashScheme accepts a tag under the nil key, which anyone can compute: a roster of IDs outside the population would certify anything.",
	},
	{
		name:   "the stored list omits its last transaction",
		file:   "internal/chain/chain.go",
		old:    "txs: ledger.EncodeTxs(txs)}",
		new:    "txs: ledger.EncodeTxs(txs[:max(len(txs), 1)-1])}",
		pkgs:   []string{"./internal/chain"},
		run:    ".",
		want:   "killed",
		reason: "A header's root and count cover every transaction appended, so a body stored one short reads back short through At and fails Verify.",
	},
	{
		name:   "a member validates against an empty view",
		file:   "internal/protocol/node_phases.go",
		old:    "out := validateList(txs, n.utxo, n.P.ParallelBlockGen)",
		new:    "out := validateList(txs, ledger.NewShardedStore(1), n.P.ParallelBlockGen)",
		pkgs:   []string{"./internal/protocol"},
		run:    "TestMemberValidatesItsList",
		want:   "killed",
		reason: "A member's verdict is its own validation of the list it was handed, against its shard's UTXO state: a payment out of a genesis output must pass.",
	},
	{
		name:   "a member's verdict on a list's first transaction is flipped",
		file:   "internal/protocol/node_phases.go",
		old:    "\treturn out\n}\n\nfunc (n *Node) recordVote",
		new:    "\tif len(out) > 0 {\n\t\tout[0] = -out[0]\n\t}\n\treturn out\n}\n\nfunc (n *Node) recordVote",
		pkgs:   []string{"./internal/protocol"},
		run:    "TestRoundOracle",
		want:   "killed",
		reason: "A committee decides a transaction on its members' own validation of it: the round oracle commits each list's valid first transaction.",
	},
	{
		name:   "Eq. 1's cosine is a plain dot product",
		file:   "internal/reputation/reputation.go",
		old:    "\treturn dot / (math.Sqrt(nv) * math.Sqrt(nd)), nil\n",
		new:    "\treturn dot, nil\n",
		pkgs:   []string{"./internal/protocol"},
		run:    "TestRoundOracle",
		want:   "killed",
		reason: "A member's round score is the cosine of its vote and the decision: the round oracle's reputation table.",
	},
	{
		name:   "the fee split drops its largest-remainder step",
		file:   "internal/reputation/reputation.go",
		old:    "\tfor i := uint64(0); i < remaining; i++ {\n\t\tout[fracs[i%uint64(n)].idx]++\n\t}\n",
		new:    "\t_ = remaining\n",
		pkgs:   []string{"./internal/protocol"},
		run:    "TestRoundOracle",
		want:   "killed",
		reason: "The §IV-G split pays out every fee unit, the floored shares and then the remainder by largest fractional part: the round oracle's rewards.",
	},
	{
		name:   "the ledger stage files an inter-carried candidate as intra",
		file:   "internal/protocol/pipeline.go",
		old:    "add(payload.Txs.Txs(), true)",
		new:    "add(payload.Txs.Txs(), false)",
		pkgs:   []string{"./internal/protocol"},
		run:    "^TestRoundOracle$",
		want:   "killed",
		reason: "A candidate is cross-shard when an inter result carried it: the round oracle classifies each transaction once, at routing, and counts intra and cross apart.",
	},
	{
		name:   "RoleTraffic's JSON writes phases in index order",
		file:   "internal/protocol/report.go",
		old:    "return cmp.Compare(Phases[a], Phases[b])",
		new:    "return cmp.Compare(a, b)",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^default$/^golden$",
		want:   "killed",
		reason: "A report's per-phase arrays write the object encoding/json wrote for the phase-keyed maps they replaced, keys in name order: the goldens' bytes.",
	},
	{
		name:   "an empty reward list is written as null",
		file:   "internal/protocol/report.go",
		old:    "func (l RewardList) MarshalJSON() ([]byte, error) {\n",
		new:    "func (l RewardList) MarshalJSON() ([]byte, error) {\n\tif len(l) == 0 {\n\t\treturn []byte(\"null\"), nil\n\t}\n",
		pkgs:   []string{"./sim"},
		run:    "TestScenarioGolden/^small-faulted$/^golden$",
		want:   "killed",
		reason: "A round that paid nobody wrote an empty map, {}, and its paid list writes the same: the small-faulted golden, whose first round paid nobody.",
	},
	{
		name:   "ResetPhases keeps a label's sent counters",
		file:   "internal/simnet/metrics.go",
		old:    "\t\tclear(m.tables[i].sent)\n",
		new:    "",
		pkgs:   []string{"./internal/simnet", "./internal/protocol"},
		run:    "^(TestMetricsMatchMapOracle|TestMetricsAccounting|TestAccountingHoldsOneRound)$",
		want:   "killed",
		reason: "A reset zeroes every label's table in place, so after it the ledger holds the new window's or round's sends only.",
	},
}

// TestMutants runs the mutant table, with CYCLEDGER_MUTANTS=1 only: each row
// builds and tests a package or two, one under the race detector, so the
// table takes minutes (run it with -timeout 30m). The go command's -overlay
// flag swaps the mutated file in at build time; the tree is not touched.
func TestMutants(t *testing.T) {
	if os.Getenv("CYCLEDGER_MUTANTS") == "" {
		t.Skip("set CYCLEDGER_MUTANTS=1 to run the mutant table")
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			if m.want != "killed" && m.want != "survives" {
				t.Fatalf("want %q, not killed or survives", m.want)
			}
			src, err := os.ReadFile(filepath.FromSlash(m.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the old text %d times, want once: %q", m.file, n, m.old)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(filepath.FromSlash(m.file))
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"test", "-count=1", "-overlay", overlayFile, "-run", m.run}, m.flags...)
			cmd := exec.Command("go", append(args, m.pkgs...)...)
			cmd.Env = append(os.Environ(), m.env...)
			out, err := cmd.CombinedOutput()
			switch failed := err != nil; {
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Fatalf("the mutant does not build:\n%s", out)
			case failed && m.want == "survives":
				t.Errorf("a surviving mutant is now killed; flip its row to killed:\n%s", out)
			case !failed && m.want == "killed":
				t.Errorf("the mutant survives go test %s: %s", strings.Join(cmd.Args[2:], " "), m.reason)
			}
		})
	}
}
