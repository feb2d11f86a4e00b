package regress

// PredictScratch holds the reusable buffers of the predict hot path: the
// per-variable z cache and the design row. A scratch belongs to exactly one
// goroutine at a time (callers pool them); the zero value is ready to use
// and grows to the high-water mark of the models it serves, so steady-state
// predictions allocate nothing.
type PredictScratch struct {
	z   []float64 // standardized-value cache, one slot per raw variable
	row []float64 // design row
}

// ensure sizes the buffers for a model with numVars raw variables and cols
// design columns.
func (s *PredictScratch) ensure(numVars, cols int) {
	if cap(s.z) < numVars {
		s.z = make([]float64, numVars)
	}
	s.z = s.z[:numVars]
	if cap(s.row) < cols {
		s.row = make([]float64, cols)
	}
	s.row = s.row[:cols]
}

// PredictWith is Predict with caller-owned scratch: the zero-allocation form
// of the serving hot path. Results are bit-identical to Predict.
//
//hslint:hotpath
func (m *Model) PredictWith(s *PredictScratch, raw []float64) float64 {
	s.ensure(m.Prep.NumVars(), len(m.Coef))
	m.Prep.fillDesignRow(m.Spec, raw, s.z, s.row)
	return m.PredictDesignRow(s.row)
}
