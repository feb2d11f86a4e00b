package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Failure reasons the ledger separates.
const (
	failShed        = "shed"        // HTTP 429: the server refused the work
	failTimeout     = "timeout"     // no answer within the client timeout
	failWrong       = "wrong"       // answered, but not the in-process answer
	failUnpublished = "unpublished" // an update whose snapshot never appeared
	failError       = "error"       // any other error status or transport error
)

// phaseCount is one phase's operation accounting.
type phaseCount struct {
	Attempted int64            `json:"attempted"`
	Succeeded int64            `json:"succeeded"`
	Failed    int64            `json:"failed"`
	Reasons   map[string]int64 `json:"reasons,omitempty"`
}

// ledger counts attempted, succeeded and failed operations per phase. A
// failure is recorded and the run goes on.
type ledger struct {
	mu     sync.Mutex
	phases map[string]*phaseCount
	notes  []string
}

func newLedger() *ledger { return &ledger{phases: map[string]*phaseCount{}} }

func (l *ledger) phase(name string) *phaseCount {
	p := l.phases[name]
	if p == nil {
		p = &phaseCount{}
		l.phases[name] = p
	}
	return p
}

func (l *ledger) ok(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.phase(name)
	p.Attempted++
	p.Succeeded++
}

// fail records a failed operation with its reason and a note for the
// diagnostics (the first few notes are kept).
func (l *ledger) fail(name, reason, note string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.phase(name)
	p.Attempted++
	p.Failed++
	if p.Reasons == nil {
		p.Reasons = map[string]int64{}
	}
	p.Reasons[reason]++
	if len(l.notes) < 20 {
		l.notes = append(l.notes, name+": "+reason+": "+note)
	}
}

// totals sums every phase.
func (l *ledger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

func (l *ledger) reason(reason string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, p := range l.phases {
		n += p.Reasons[reason]
	}
	return n
}

func (l *ledger) snapshot() (map[string]phaseCount, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]phaseCount, len(l.phases))
	for k, v := range l.phases {
		out[k] = *v
	}
	return out, append([]string(nil), l.notes...)
}

// requestKind is one of serve_read's four request shapes.
type requestKind int

const (
	kindSingle  requestKind = iota // one (shard, config) on /v1/predict
	kindScatter                    // 64 distinct (shard, config) pairs, exact model id
	kindSweep                      // one shard x 64 configs, app: alias
	kindApp                        // one whole 8-shard application
	numKinds
)

func (k requestKind) String() string {
	return [...]string{"single", "scatter", "sweep", "app"}[k]
}

// kindDeck is serve_read's request mix: every run of deckSize requests
// holds exactly these counts, in a seeded order, so every seed sends the same
// mix and only the order and contents of requests change. No record of real
// traffic exists to weigh the kinds by, so each kind gets an equal share.
var kindDeck = [numKinds]int{kindSingle: 5, kindScatter: 5, kindSweep: 5, kindApp: 5}

const deckSize = 20

// mixStream draws a client's seeded request kinds: the same (seed, client)
// gives the same stream.
type mixStream struct {
	r    *rand.Rand
	deck []requestKind
}

func newMixStream(seed uint64, client int) *mixStream {
	return &mixStream{r: rand.New(rand.NewPCG(seed, 0x5e7e+uint64(client)))}
}

func (m *mixStream) next() requestKind {
	if len(m.deck) == 0 {
		for k, n := range kindDeck {
			for i := 0; i < n; i++ {
				m.deck = append(m.deck, requestKind(k))
			}
		}
		m.r.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	k := m.deck[0]
	m.deck = m.deck[1:]
	return k
}

// intn draws from the same stream, so request contents follow the seed too.
func (m *mixStream) intn(n int) int { return m.r.IntN(n) }

// clock is the time source of the open-loop generator, swappable in tests.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }
func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoopResult holds each request's latency, timed from when it was due,
// and how late the generator sent it.
type openLoopResult struct {
	Latency []time.Duration
	Late    []time.Duration
}

// runOpenLoop sends request i at start + i*interval, one at a time on one
// connection, until done reports that the request due next is past the end
// of the schedule. A request that could not be sent on time (the
// previous one was still running) is sent as soon as possible, and its
// latency still counts from its due time, so a stall shows in every request
// it delays.
func runOpenLoop(clk clock, start time.Time, interval time.Duration, done func(due time.Time) bool, do func(i int)) openLoopResult {
	var res openLoopResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if done(due) {
			return res
		}
		clk.sleepUntil(due)
		sent := clk.now()
		do(i)
		finished := clk.now()
		res.Latency = append(res.Latency, finished.Sub(due))
		res.Late = append(res.Late, sent.Sub(due))
	}
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
