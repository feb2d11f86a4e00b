package core

import (
	"math"
	"reflect"
	"testing"
)

// numbered returns a sample identified by its CPI label, so store tests can
// recover which submission a retained slot came from.
func numbered(i int) Sample {
	return Sample{App: "t", CPI: float64(i)}
}

func TestReservoirFillsThenStaysBounded(t *testing.T) {
	st := newStream(50, 1, 1)
	for i := 1; i <= 2000; i++ {
		st.add(numbered(i))
		if n := len(st.res.items); n > 50 {
			t.Fatalf("after %d adds: occupancy %d exceeds capacity 50", i, n)
		} else if i <= 50 && n != i {
			t.Fatalf("after %d adds: occupancy %d, want every pre-fill sample kept", i, n)
		}
	}
	if n := len(st.res.items); n != 50 {
		t.Fatalf("final occupancy %d, want full capacity 50", n)
	}
	if st.seen != 2000 {
		t.Fatalf("seen %d, want 2000", st.seen)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := newStream(64, 1, 42), newStream(64, 1, 42)
	other := newStream(64, 1, 43)
	for i := 1; i <= 5000; i++ {
		a.add(numbered(i))
		b.add(numbered(i))
		other.add(numbered(i))
	}
	as, bs, os := a.res.items, b.res.items, other.res.items
	differs := false
	for i := range as {
		if math.Float64bits(as[i].s.CPI) != math.Float64bits(bs[i].s.CPI) {
			t.Fatalf("slot %d: same seed diverged: %v vs %v", i, as[i].s.CPI, bs[i].s.CPI)
		}
		if math.Float64bits(as[i].s.CPI) != math.Float64bits(os[i].s.CPI) {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds retained identical reservoirs")
	}
}

// TestReservoirUniformity checks the Algorithm-R invariant: after n >> cap
// submissions, the retained set is a uniform sample of the whole history, so
// each third of the submission range holds about a third of the slots and
// the mean retained index sits near the middle. The stream is deterministic,
// so the bounds are exact for this seed while still being ~4 sigma wide for
// a genuinely uniform sampler.
func TestReservoirUniformity(t *testing.T) {
	const capacity, n = 120, 6000
	st := newStream(capacity, 1, 7)
	for i := 1; i <= n; i++ {
		st.add(numbered(i))
	}
	var thirds [3]int
	var sum float64
	for _, r := range st.res.items {
		idx := int(r.s.CPI)
		thirds[(idx-1)*3/n]++
		sum += r.s.CPI
	}
	for k, c := range thirds {
		if c < 20 || c > 60 {
			t.Errorf("third %d retained %d of %d slots, want roughly uniform (~40)", k, c, capacity)
		}
	}
	mean := sum / capacity
	if mean < float64(n)/2-600 || mean > float64(n)/2+600 {
		t.Errorf("mean retained index %.0f, want near %d", mean, n/2)
	}
}

func TestRingKeepsMostRecentInOrder(t *testing.T) {
	st := newStream(1, 8, 0)
	for i := 1; i <= 3; i++ {
		st.add(numbered(i))
	}
	got := st.recent.appendTo(nil)
	if len(got) != 3 || int(got[0].CPI) != 1 || int(got[2].CPI) != 3 {
		t.Fatalf("pre-fill ring %v, want [1 2 3]", got)
	}
	for i := 4; i <= 30; i++ {
		st.add(numbered(i))
	}
	got = st.recent.appendTo(nil)
	if len(got) != 8 {
		t.Fatalf("ring occupancy %d, want 8", len(got))
	}
	for k, s := range got {
		if want := 23 + k; int(s.CPI) != want {
			t.Fatalf("ring slot %d holds submission %d, want %d (oldest first)", k, int(s.CPI), want)
		}
	}
	if st.seen != 30 {
		t.Fatalf("seen %d, want 30", st.seen)
	}
}

// TestStreamOrderAcrossFirstEviction checks every stream length around the
// reservoir's first eviction, where the ring takes its own copies of the
// reservoir's tail: reads stay in strict arrival order, len agrees with
// them, and they always end with the most recent rows.
func TestStreamOrderAcrossFirstEviction(t *testing.T) {
	for _, caps := range [][2]int{{4, 3}, {3, 4}, {5, 5}} {
		st := newStream(caps[0], caps[1], 9)
		for i := 1; i <= 40; i++ {
			st.add(numbered(i))
			got := st.appendTo(nil)
			if len(got) != st.len() {
				t.Fatalf("caps %v after %d adds: read %d rows, len says %d", caps, i, len(got), st.len())
			}
			for k := 1; k < len(got); k++ {
				if got[k].CPI <= got[k-1].CPI {
					t.Fatalf("caps %v after %d adds: out of arrival order: %v", caps, i, got)
				}
			}
			for k := 0; k < st.ringLen(); k++ {
				if want := i - k; int(got[len(got)-1-k].CPI) != want {
					t.Fatalf("caps %v after %d adds: recent rows %v, want the last %d", caps, i, got, st.ringLen())
				}
			}
		}
	}
}

// TestStoreBelowCapIsAppendHistory: until the reservoir first evicts, the
// store is exactly the corpus followed by every streamed row, in arrival
// order and bit for bit. Value-identical rows arrive twice here and must
// stay two rows: the store deduplicates by arrival, never by value.
func TestStoreBelowCapIsAppendHistory(t *testing.T) {
	corpus := []Sample{numbered(-1), numbered(-1)}
	m := NewTrainer(append([]Sample(nil), corpus...))
	var streamed []Sample
	for i := 0; len(streamed) < reservoirCap; i++ {
		batch := []Sample{numbered(i), numbered(i % 7), numbered(i)}
		if room := reservoirCap - len(streamed); len(batch) > room {
			batch = batch[:room]
		}
		m.AddSamples(batch)
		streamed = append(streamed, batch...)
	}
	want := append(append([]Sample(nil), corpus...), streamed...)

	if got := m.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store of %d rows differs from the %d-row append history", len(got), len(want))
	}
	if n := m.NumSamples(); n != len(want) {
		t.Fatalf("NumSamples %d, want %d", n, len(want))
	}
	if got := m.Streamed(); !reflect.DeepEqual(got, streamed) {
		t.Fatal("Streamed differs from the streamed append history")
	}
}

// TestStoreBoundedAt100k: a trainer with no control loop in front of it
// keeps its corpus verbatim and never holds more than corpus + reservoir +
// ring rows, however long the stream; the retained stream stays in arrival
// order and ends with the most recent rows.
func TestStoreBoundedAt100k(t *testing.T) {
	corpus := []Sample{numbered(-3), numbered(-2), numbered(-1)}
	m := NewTrainer(append([]Sample(nil), corpus...))
	const n = 100_000
	bound := len(corpus) + reservoirCap + ringCap
	for i := 1; i <= n; i++ {
		m.AddSamples([]Sample{numbered(i)})
		if i%10_000 == 0 {
			if rows := m.NumSamples(); rows > bound {
				t.Fatalf("after %d adds: %d rows, want at most %d", i, rows, bound)
			}
		}
	}
	got := m.Samples()
	if len(got) != m.NumSamples() {
		t.Fatalf("Samples has %d rows, NumSamples says %d", len(got), m.NumSamples())
	}
	if !reflect.DeepEqual(got[:len(corpus)], corpus) {
		t.Fatal("corpus rows not kept verbatim at the head of the store")
	}
	streamed := got[len(corpus):]
	for k := 1; k < len(streamed); k++ {
		if streamed[k].CPI <= streamed[k-1].CPI {
			t.Fatalf("streamed rows out of arrival order at %d: %v after %v", k, streamed[k].CPI, streamed[k-1].CPI)
		}
	}
	for k, s := range streamed[len(streamed)-ringCap:] {
		if want := n - ringCap + 1 + k; int(s.CPI) != want {
			t.Fatalf("tail row %d is submission %d, want %d", k, int(s.CPI), want)
		}
	}
	resLen, resCap, ringLen, rCap := m.StreamOccupancy()
	if resLen != resCap || ringLen != rCap {
		t.Fatalf("occupancy %d/%d reservoir, %d/%d ring, want both full", resLen, resCap, ringLen, rCap)
	}
}
