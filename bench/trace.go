package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
	"cycledger/sim"
)

// A span is one timed interval of the traced pass. Spans of one round
// share the round's id as Parent; the round span's Parent is its run.
type span struct {
	Name     string
	Workload string
	Round    uint64
	ID       int
	Parent   int
	Start    time.Duration // since the trace epoch
	End      time.Duration
}

// traceLog keeps every span of an invocation in memory until the
// benchmark ends; -trace-out writes them as Chrome trace events.
type traceLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTraceLog() *traceLog { return &traceLog{epoch: time.Now()} }

// add records a span and returns its id.
func (l *traceLog) add(name, workload string, round uint64, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Name: name, Workload: workload, Round: round, ID: id, Parent: parent,
		Start: start.Sub(l.epoch), End: end.Sub(l.epoch),
	})
	return id
}

// setEnd closes a span that was logged when it opened.
func (l *traceLog) setEnd(id int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end.Sub(l.epoch)
}

// timed runs fn inside a span.
func (l *traceLog) timed(name, workload string, parent int, fn func()) {
	start := time.Now()
	fn()
	l.add(name, workload, 0, parent, start, time.Now())
}

// writeChrome writes the spans in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per workload.
func (l *traceLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tracks := map[string]int{}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		tid, ok := tracks[s.Workload]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Workload] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "round": s.Round},
		})
	}
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// phaseMark is one OnPhase callback: which network phase started, when,
// and at what virtual time.
type phaseMark struct {
	phase string
	at    time.Time
	ticks int64
}

// roundTrace is what the observer saw of one round.
type roundTrace struct {
	spansMs map[string]float64 // wall span name → ms
	ticks   map[string]float64 // network phase → virtual ticks
	wallMs  float64
}

// reservoirCap bounds the audited messages kept per tag family.
const reservoirCap = 2048

// family is the audit's view of one tag family: exact totals, and a
// bounded uniform sample of encoded messages for the wire cells.
type family struct {
	count  uint64
	bytes  uint64
	sample [][]byte
}

type proposalKey struct {
	round, sn uint64
	leader    simnet.NodeID
}

// tracer is the traced pass's instrumentation: a sim.Observer that turns
// phase callbacks into spans, and a send-audit hook that counts and
// samples the traffic. Everything it records comes from outside the
// program, through hooks the program already exposes.
type tracer struct {
	log      *traceLog
	workload string
	runSpan  int
	now      func() int64 // the transport's virtual clock

	// Observer state. The facade serialises callbacks, and begin/endRound
	// run between rounds on the driving goroutine.
	recording  bool
	roundStart time.Time
	roundEnd   time.Time
	roundNo    uint64
	endTicks   int64
	marks      []phaseMark
	rounds     []roundTrace

	// Audit state. The hook fires concurrently under parallelism > 1 and
	// on the live transport, and payloads may be shared after delivery, so
	// everything is counted and encoded at capture time under the lock.
	mu         sync.Mutex
	rng        *rand.Rand
	families   map[string]*family
	cfgRecords uint64
	cfgUnique  map[string]struct{}
	keyBuf     []byte
	proposals  map[proposalKey]struct{}
	encodeErrs int
}

func newTracer(log *traceLog, seed int64) *tracer {
	t := &tracer{
		log:       log,
		rng:       rand.New(rand.NewSource(seed)),
		families:  make(map[string]*family, len(wireFamilies)),
		cfgUnique: make(map[string]struct{}),
		proposals: make(map[proposalKey]struct{}),
	}
	for _, f := range wireFamilies {
		t.families[f] = &family{}
	}
	return t
}

// attach installs the audit hook and binds the virtual clock; it runs
// between sim.New and the first round, while the network is idle.
func (t *tracer) attach(s *sim.Sim) {
	net := s.Engine().Net
	t.now = func() int64 { return int64(net.Now()) }
	net.SetSendAudit(t.audit)
}

// start opens the measured window: warm-up rounds are not recorded.
func (t *tracer) start(workload string) {
	t.mu.Lock()
	t.recording = true
	t.mu.Unlock()
	t.workload = workload
	now := time.Now()
	t.runSpan = t.log.add("traced-run", workload, 0, 0, now, now)
}

func (t *tracer) stop() {
	t.mu.Lock()
	t.recording = false
	t.mu.Unlock()
	t.log.setEnd(t.runSpan, time.Now())
}

func (t *tracer) beginRound() {
	t.marks = t.marks[:0]
	t.roundStart = time.Now()
}

// OnPhase implements sim.Observer.
func (t *tracer) OnPhase(round uint64, phase string) {
	if !t.isRecording() {
		return
	}
	t.marks = append(t.marks, phaseMark{phase: phase, at: time.Now(), ticks: t.now()})
}

// OnRound implements sim.Observer.
func (t *tracer) OnRound(r *sim.RoundReport) {
	t.roundEnd = time.Now()
	t.roundNo = r.Round
	t.endTicks = t.now()
}

// OnRecovery implements sim.Observer; recoveries are read off the report.
func (t *tracer) OnRecovery(sim.RecoveryEvent) {}

func (t *tracer) isRecording() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recording
}

// endRound folds the round's marks into spans. Each span runs from one
// callback to the next, so the CPU stages the sequential order places
// after a network phase fall inside that phase's span; what the iterator
// and the observer themselves cost is the round's self time, "other".
func (t *tracer) endRound(wall time.Duration) {
	rt := roundTrace{
		spansMs: make(map[string]float64, len(spanOrder)),
		ticks:   make(map[string]float64, len(phases)),
		wallMs:  ms(wall),
	}
	if len(t.marks) == 0 {
		t.rounds = append(t.rounds, rt)
		return
	}
	roundID := t.log.add("round", t.workload, t.roundNo, t.runSpan, t.roundStart, t.roundStart.Add(wall))
	covered := 0.0
	emit := func(name string, from, to time.Time) {
		rt.spansMs[name] += ms(to.Sub(from))
		covered += ms(to.Sub(from))
		t.log.add(name, t.workload, t.roundNo, roundID, from, to)
	}
	emit("workload", t.roundStart, t.marks[0].at)
	for i, m := range t.marks {
		end, endTicks := t.roundEnd, t.endTicks
		if i+1 < len(t.marks) {
			end, endTicks = t.marks[i+1].at, t.marks[i+1].ticks
		}
		emit(spanNames[m.phase], m.at, end)
		rt.ticks[m.phase] += float64(endTicks - m.ticks)
	}
	rt.spansMs["other"] = rt.wallMs - covered
	t.rounds = append(t.rounds, rt)
}

// familyOf groups a message tag into one of the six wire families.
func familyOf(tag string) string {
	switch {
	case strings.HasPrefix(tag, "CFG_"):
		return "cfg"
	case strings.HasPrefix(tag, "CONS_"):
		return "cons"
	}
	switch tag {
	case "TX_LIST", "VOTE", "INTER_FWD":
		return "tx"
	case "INTRA", "INTER_RESULT", "SCORE", "UTXO_FINAL", "SEMI_COM", "SEMI_COM_OK":
		return "cert"
	case "BLOCK":
		return "block"
	}
	return "ctl"
}

// audit is the send-audit hook.
func (t *tracer) audit(m simnet.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	f := t.families[familyOf(m.Tag)]
	f.count++
	f.bytes += uint64(m.Size)

	switch p := m.Payload.(type) {
	case committee.JoinRequest:
		t.presented(p.Rec)
	case committee.MemListMsg:
		for _, rec := range p.Records {
			t.presented(rec)
		}
	case consensus.Propose:
		if m.Tag == consensus.TagPropose {
			t.proposals[proposalKey{p.Round, p.SN, p.Leader}] = struct{}{}
		}
	}

	// Reservoir sampling: decide before paying for the encoding.
	slot := -1
	if len(f.sample) < reservoirCap {
		slot = len(f.sample)
	} else if j := t.rng.Int63n(int64(f.count)); j < reservoirCap {
		slot = int(j)
	}
	if slot < 0 || m.Payload == nil {
		return // PVSS shares are modelled traffic: a size, no payload
	}
	enc, err := wire.Encode(m.Payload)
	if err != nil {
		t.encodeErrs++
		return
	}
	if slot == len(f.sample) {
		f.sample = append(f.sample, enc)
	} else {
		f.sample[slot] = enc
	}
}

// presented counts one member record handed to a receiver for
// verification. Key-member records carry no proof and are trusted, so
// they never reach VRFVerify and are not counted.
func (t *tracer) presented(rec committee.MemberRecord) {
	if len(rec.Proof) == 0 {
		return
	}
	t.cfgRecords++
	t.keyBuf = append(append(t.keyBuf[:0], rec.PK...), rec.Proof...)
	if _, ok := t.cfgUnique[string(t.keyBuf)]; !ok {
		t.cfgUnique[string(t.keyBuf)] = struct{}{}
	}
}
