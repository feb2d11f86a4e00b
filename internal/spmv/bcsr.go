package spmv

import "fmt"

// BCSR is the r x c block compressed sparse row format of Figure 11: every
// block with at least one non-zero is stored densely (padding with explicit
// zeros), blocks are laid out contiguously in Val, BColIdx holds the first
// column index of each block, and BRowStart points at block-row boundaries
// in BColIdx.
//
// Blocking trades storage and flops (the fill ratio) for locality and index
// overhead: indices point at blocks instead of individual values, the
// source vector element u[j] is re-used across the r rows of a block, and
// values stream contiguously.
type BCSR struct {
	Rows, Cols int // logical (unpadded) dimensions
	R, C       int // block dimensions
	BRowStart  []int
	BColIdx    []int
	Val        []float64 // len = numBlocks*R*C, blocks row-major
	// OrigNNZ is the non-zero count of the source matrix, the denominator
	// of the fill ratio and the numerator of "true" Mflop/s.
	OrigNNZ int
}

// NumBlocks returns the stored-block count.
func (b *BCSR) NumBlocks() int { return len(b.BColIdx) }

// StoredValues returns the stored-value count including explicit zeros.
func (b *BCSR) StoredValues() int { return len(b.Val) }

// FillRatio returns stored values (original non-zeros plus filled zeros)
// divided by original non-zeros — Table 5's x3.
func (b *BCSR) FillRatio() float64 {
	if b.OrigNNZ == 0 {
		return 1
	}
	return float64(b.StoredValues()) / float64(b.OrigNNZ)
}

// ToBCSR blocks m into r x c tiles. Rows and columns are implicitly padded
// to multiples of r and c; padding never stores blocks because padded
// regions hold no non-zeros.
//
// Conversion takes two passes over the matrix. Pass 1 counts the occupied
// block columns of every block row, so BColIdx and Val are allocated once at
// their final size. Pass 2 lists each block row's block columns in
// ascending order and scatters the values into their dense blocks. Both
// passes use dense arrays indexed by block column, so the allocation count
// does not grow with the matrix.
func ToBCSR(m *CSR, r, c int) *BCSR {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("spmv: invalid block size %dx%d", r, c))
	}
	b := &BCSR{Rows: m.Rows, Cols: m.Cols, R: r, C: c, OrigNNZ: m.NNZ()}
	numBlockRows := (m.Rows + r - 1) / r
	numBlockCols := (m.Cols + c - 1) / c
	b.BRowStart = make([]int, numBlockRows+1)

	// mark[bj] == stamp says block column bj is already counted (pass 1) or
	// listed (pass 2) in the current block row. Pass 1 stamps block row bi
	// with bi+1 and pass 2 with numBlockRows+bi+1, so the marker is never
	// cleared.
	mark := make([]int, numBlockCols)
	for bi := 0; bi < numBlockRows; bi++ {
		rowLo := bi * r
		rowHi := min(rowLo+r, m.Rows)
		n := 0
		for i := rowLo; i < rowHi; i++ {
			idx, _ := m.Row(i)
			for _, j := range idx {
				if bj := j / c; mark[bj] != bi+1 {
					mark[bj] = bi + 1
					n++
				}
			}
		}
		b.BRowStart[bi+1] = b.BRowStart[bi] + n
	}
	numBlocks := b.BRowStart[numBlockRows]
	b.BColIdx = make([]int, numBlocks)
	b.Val = make([]float64, numBlocks*r*c)

	// at[bj] is the position of block column bj in BColIdx for the current
	// block row.
	at := make([]int, numBlockCols)
	for bi := 0; bi < numBlockRows; bi++ {
		rowLo := bi * r
		rowHi := min(rowLo+r, m.Rows)
		base := b.BRowStart[bi]
		cols := b.BColIdx[base:b.BRowStart[bi+1]]
		stamp := numBlockRows + bi + 1
		n := 0
		for i := rowLo; i < rowHi; i++ {
			idx, _ := m.Row(i)
			for _, j := range idx {
				if bj := j / c; mark[bj] != stamp {
					mark[bj] = stamp
					cols[n] = bj
					n++
				}
			}
		}
		sortInts(cols)
		for pos, bj := range cols {
			at[bj] = base + pos
			cols[pos] = bj * c
		}
		for i := rowLo; i < rowHi; i++ {
			idx, vals := m.Row(i)
			for k, j := range idx {
				blk := at[j/c]
				off := blk*r*c + (i-rowLo)*c + (j - (j/c)*c)
				b.Val[off] = vals[k]
			}
		}
	}
	return b
}

// sortInts is a small insertion sort: block rows rarely hold more than a few
// hundred blocks, and avoiding sort.Ints keeps conversion allocation-free on
// the hot path.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MulVec computes v = v + A*u block by block, the computation the timing
// simulator models. Results match CSR.MulVec exactly (explicit zeros
// multiply into nothing).
func (b *BCSR) MulVec(u, v []float64) {
	if len(u) != b.Cols || len(v) != b.Rows {
		panic("spmv: BCSR MulVec dimension mismatch")
	}
	numBlockRows := len(b.BRowStart) - 1
	for bi := 0; bi < numBlockRows; bi++ {
		rowLo := bi * b.R
		for blk := b.BRowStart[bi]; blk < b.BRowStart[bi+1]; blk++ {
			colLo := b.BColIdx[blk]
			base := blk * b.R * b.C
			for dr := 0; dr < b.R; dr++ {
				i := rowLo + dr
				if i >= b.Rows {
					break
				}
				sum := v[i]
				for dc := 0; dc < b.C; dc++ {
					j := colLo + dc
					if j >= b.Cols {
						break
					}
					sum += b.Val[base+dr*b.C+dc] * u[j]
				}
				v[i] = sum
			}
		}
	}
}
