package core

import (
	"sort"

	"hsmodel/internal/rng"
)

// The Trainer's profile store P, bounded. "Beyond Profiling" treats incoming
// profiles as a long-lived shared asset that must survive unbounded traffic,
// so the rows streamed through AddSamples are kept by two complementary
// structures whose memory stays flat under millions of submissions:
//
//   - reservoir: a seeded Algorithm-R sample over the whole stream — every
//     row ever streamed has equal probability of being retained, so the long
//     tail of old regimes stays represented;
//   - ring: the most recent rows verbatim — the fresh profiles the paper's
//     update protocol re-fits against (Section 3.3's 10–20 new points).
//
// A row may sit in both; reads deduplicate by arrival sequence number, never
// by value, so two identical submissions stay two rows. Until the reservoir
// first evicts, it holds the whole stream in arrival order — exactly the
// append history — and the ring, which would only duplicate its tail, is
// not materialized. Both structures grow by append up to their caps and are
// deterministic given their seed and the arrival order. Neither is
// internally locked: the Trainer serializes access under its own mutex.

// Retention caps of the stream store.
const (
	reservoirCap = 2048
	ringCap      = 256
)

// streamRow is one streamed sample tagged with its arrival sequence number.
type streamRow struct {
	seq uint64
	s   Sample
}

// reservoir is a fixed-capacity uniform sample of every row offered to it
// (Vitter's Algorithm R).
type reservoir struct {
	capacity int
	src      *rng.Source
	items    []streamRow
}

// add offers row, the (row.seq+1)-th arrival. Until the reservoir fills,
// every row is kept; afterwards it replaces a uniformly random slot with
// probability capacity/(row.seq+1), the invariant that makes the retained
// set a uniform sample of the whole history.
func (r *reservoir) add(row streamRow) {
	if len(r.items) < r.capacity {
		r.items = append(r.items, row)
		return
	}
	if j := r.src.Uint64() % (row.seq + 1); j < uint64(r.capacity) {
		r.items[j] = row
	}
}

// ring retains the most recent capacity rows.
type ring struct {
	capacity int
	buf      []Sample
	next     int // slot of the oldest row once full
}

// add records one row, overwriting the oldest once full.
func (g *ring) add(s Sample) {
	if len(g.buf) < g.capacity {
		g.buf = append(g.buf, s)
		return
	}
	g.buf[g.next] = s
	g.next = (g.next + 1) % g.capacity
}

// appendTo appends the retained rows to dst, oldest first.
func (g *ring) appendTo(dst []Sample) []Sample {
	dst = append(dst, g.buf[g.next:]...)
	return append(dst, g.buf[:g.next]...)
}

// stream is the bounded store of rows streamed through AddSamples.
type stream struct {
	seen   uint64 // rows streamed so far; the next row's sequence number
	res    reservoir
	recent ring
}

// newStream returns an empty stream store with the given caps; the
// reservoir's eviction draws are seeded by seed.
func newStream(resCap, recentCap int, seed uint64) *stream {
	return &stream{
		res:    reservoir{capacity: resCap, src: rng.New(seed)},
		recent: ring{capacity: recentCap},
	}
}

func (st *stream) add(s Sample) {
	if st.seen == uint64(st.res.capacity) {
		// The first eviction is due: the ring, until now the reservoir's
		// tail, must hold its own copies from here on.
		for _, r := range st.res.items[max(0, len(st.res.items)-st.recent.capacity):] {
			st.recent.add(r.s)
		}
	}
	if st.seen >= uint64(st.res.capacity) {
		st.recent.add(s)
	}
	st.res.add(streamRow{seq: st.seen, s: s})
	st.seen++
}

// evicting reports whether the stream has outgrown the reservoir. Until it
// does, the reservoir holds every row in arrival order and the ring is
// empty.
func (st *stream) evicting() bool { return st.seen > uint64(st.res.capacity) }

// ringLen is how many of the most recent rows the ring stands for, whether
// or not it has been materialized yet.
func (st *stream) ringLen() int { return int(min(st.seen, uint64(st.recent.capacity))) }

// ringStart is the sequence number of the ring's oldest row: once
// materialized, the ring holds the contiguous tail [ringStart, seen) of the
// stream.
func (st *stream) ringStart() uint64 { return st.seen - uint64(len(st.recent.buf)) }

// len returns how many distinct streamed rows are retained. A nil stream is
// empty.
func (st *stream) len() int {
	if st == nil {
		return 0
	}
	if !st.evicting() {
		return len(st.res.items)
	}
	n, start := len(st.recent.buf), st.ringStart()
	for _, r := range st.res.items {
		if r.seq < start {
			n++
		}
	}
	return n
}

// appendTo appends the retained streamed rows to dst in arrival order: the
// reservoir's rows older than the ring, then the ring.
func (st *stream) appendTo(dst []Sample) []Sample {
	if st == nil {
		return dst
	}
	if !st.evicting() {
		for _, r := range st.res.items {
			dst = append(dst, r.s)
		}
		return dst
	}
	start := st.ringStart()
	older := make([]int, 0, len(st.res.items))
	for i, r := range st.res.items {
		if r.seq < start {
			older = append(older, i)
		}
	}
	sort.Slice(older, func(a, b int) bool {
		return st.res.items[older[a]].seq < st.res.items[older[b]].seq
	})
	for _, i := range older {
		dst = append(dst, st.res.items[i].s)
	}
	return st.recent.appendTo(dst)
}
