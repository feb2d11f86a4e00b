package spmv

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hsmodel/internal/rng"
)

// refToBCSR is the map-based block conversion ToBCSR replaced: per block
// row, a map from block column to block position, with BColIdx and Val
// grown by append. It is kept as the reference for the differential test.
func refToBCSR(m *CSR, r, c int) *BCSR {
	b := &BCSR{Rows: m.Rows, Cols: m.Cols, R: r, C: c, OrigNNZ: m.NNZ()}
	numBlockRows := (m.Rows + r - 1) / r
	b.BRowStart = make([]int, numBlockRows+1)
	seenAt := make(map[int]int)
	for bi := 0; bi < numBlockRows; bi++ {
		for k := range seenAt {
			delete(seenAt, k)
		}
		var cols []int
		rowLo := bi * r
		rowHi := min(rowLo+r, m.Rows)
		for i := rowLo; i < rowHi; i++ {
			idx, _ := m.Row(i)
			for _, j := range idx {
				bj := j / c
				if _, ok := seenAt[bj]; !ok {
					seenAt[bj] = 0
					cols = append(cols, bj)
				}
			}
		}
		sortInts(cols)
		base := len(b.BColIdx)
		for pos, bj := range cols {
			seenAt[bj] = base + pos
			b.BColIdx = append(b.BColIdx, bj*c)
		}
		b.Val = append(b.Val, make([]float64, len(cols)*r*c)...)
		for i := rowLo; i < rowHi; i++ {
			idx, vals := m.Row(i)
			for k, j := range idx {
				blk := seenAt[j/c]
				off := blk*r*c + (i-rowLo)*c + (j - (j/c)*c)
				b.Val[off] = vals[k]
			}
		}
		b.BRowStart[bi+1] = len(b.BColIdx)
	}
	return b
}

// sameBCSR reports the first field in which got and want differ, or "".
func sameBCSR(got, want *BCSR) string {
	switch {
	case got.Rows != want.Rows || got.Cols != want.Cols || got.R != want.R || got.C != want.C:
		return "shape"
	case got.OrigNNZ != want.OrigNNZ:
		return "OrigNNZ"
	case !slices.Equal(got.BRowStart, want.BRowStart):
		return "BRowStart"
	case !slices.Equal(got.BColIdx, want.BColIdx):
		return "BColIdx"
	case len(got.Val) != len(want.Val):
		return "len(Val)"
	}
	for i := range got.Val {
		if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			return "Val"
		}
	}
	return ""
}

// TestToBCSRMatchesReference: for every one of the 64 block sizes, the
// two-pass conversion is field-for-field (values bit-for-bit) identical to
// the map-based reference.
func TestToBCSRMatchesReference(t *testing.T) {
	src := rng.New(0xb05)
	cases := map[string]*CSR{
		"zero-nnz": ToCSR(&COO{Rows: 13, Cols: 11}),
		"1x1":      ToCSR(&COO{Rows: 1, Cols: 1, I: []int{0}, J: []int{0}, V: []float64{2.5}}),
	}
	for _, name := range []string{"olafu", "bayer02"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases[name+"/64"] = spec.Scaled(64).Generate()
	}
	for _, dim := range [][2]int{{37, 29}, {61, 67}, {9, 103}} {
		cases[fmt.Sprintf("random %dx%d", dim[0], dim[1])] = randomCSR(src, dim[0], dim[1], 3*(dim[0]+dim[1]))
	}
	// Empty rows and columns: only even rows and columns divisible by 3
	// hold entries.
	gaps := &COO{Rows: 45, Cols: 50}
	for k := 0; k < 200; k++ {
		gaps.Add(2*src.Intn(23), 3*src.Intn(17), src.Float64()*2-1)
	}
	cases["empty rows/cols"] = ToCSR(gaps)

	for name, m := range cases {
		for r := 1; r <= MaxBlockDim; r++ {
			for c := 1; c <= MaxBlockDim; c++ {
				if field := sameBCSR(ToBCSR(m, r, c), refToBCSR(m, r, c)); field != "" {
					t.Errorf("%s %dx%d: %s differs from the reference", name, r, c, field)
				}
			}
		}
	}
}

// TestToBCSRAllocsBounded: a conversion allocates a fixed handful of arrays,
// however large the matrix.
func TestToBCSRAllocsBounded(t *testing.T) {
	spec, err := ByName("olafu")
	if err != nil {
		t.Fatal(err)
	}
	small := spec.Scaled(64).Generate()
	large := spec.Scaled(8).Generate()
	for _, rc := range [][2]int{{1, 1}, {3, 5}, {6, 6}, {8, 8}} {
		a := testing.AllocsPerRun(5, func() { ToBCSR(small, rc[0], rc[1]) })
		b := testing.AllocsPerRun(5, func() { ToBCSR(large, rc[0], rc[1]) })
		if a > 8 || b > 8 || b > a {
			t.Errorf("%dx%d: %v allocs (nnz %d), %v allocs (nnz %d); want <= 8 and not growing",
				rc[0], rc[1], a, small.NNZ(), b, large.NNZ())
		}
	}
}

// TestBlockedConvertsOnce: concurrent first requests for one variant all get
// the same *BCSR.
func TestBlockedConvertsOnce(t *testing.T) {
	spec, err := ByName("olafu")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(spec.Scaled(16))
	got := make([]*BCSR, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = s.Blocked(3, 5)
		}()
	}
	close(start)
	wg.Wait()
	for g, b := range got {
		if b != got[0] {
			t.Fatalf("goroutine %d got a different *BCSR than goroutine 0", g)
		}
	}
}

// TestSampleMatchesSequential: the parallel Sample, on a fresh Study, is
// bit-identical to drawing and simulating each point in turn, at one and at
// four goroutines.
func TestSampleMatchesSequential(t *testing.T) {
	spec, err := ByName("olafu")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(spec.Scaled(64))
	const n, seed = 40, 0x5a3
	src := rng.New(seed)
	want := make([]Point, n)
	for k := range want {
		r := 1 + src.Intn(MaxBlockDim)
		c := 1 + src.Intn(MaxBlockDim)
		cfg := SampleCacheConfig(src)
		res := s.Simulate(r, c, cfg)
		want[k] = Point{R: r, C: c, Fill: s.FillRatio(r, c), Cfg: cfg,
			MFlops: res.MFlops(), Watts: res.Watts(), NJFlop: res.NJPerFlop()}
	}

	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := NewStudy(s.Spec).Sample(n, seed)
		for k := range want {
			g, w := got[k], want[k]
			if g.R != w.R || g.C != w.C || g.Cfg != w.Cfg ||
				math.Float64bits(g.Fill) != math.Float64bits(w.Fill) ||
				math.Float64bits(g.MFlops) != math.Float64bits(w.MFlops) ||
				math.Float64bits(g.Watts) != math.Float64bits(w.Watts) ||
				math.Float64bits(g.NJFlop) != math.Float64bits(w.NJFlop) {
				t.Fatalf("GOMAXPROCS %d: point %d = %+v, want %+v", procs, k, g, w)
			}
		}
	}
}
