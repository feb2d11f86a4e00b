package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"hsmodel/internal/family"
	"hsmodel/internal/family/residual"
	"hsmodel/internal/family/spline"
	"hsmodel/internal/genetic"
)

// constModel is a fixed-prediction family.Model for harness tests.
type constModel struct {
	fam string
	val float64
}

func (m constModel) Predict([]float64) float64 { return m.val }
func (m constModel) Describe() family.Description {
	return family.Description{Family: m.fam, Spec: "const"}
}
func (m constModel) Payload() (json.RawMessage, error) {
	return json.Marshal(m.val)
}

// fakeFamily is a scriptable family.Family: it returns a fixed model or a
// fixed error and counts Fit calls.
type fakeFamily struct {
	name string
	val  float64
	err  error
	fits int
}

func (f *fakeFamily) Name() string { return f.name }
func (f *fakeFamily) Fit(ctx context.Context, in family.FitInput) (family.FitOutput, error) {
	f.fits++
	if err := ctx.Err(); err != nil {
		return family.FitOutput{}, err
	}
	if f.err != nil {
		return family.FitOutput{}, f.err
	}
	return family.FitOutput{Model: constModel{fam: f.name, val: f.val}}, nil
}
func (f *fakeFamily) Load(payload json.RawMessage, numVars int) (family.Model, error) {
	var val float64
	if err := json.Unmarshal(payload, &val); err != nil {
		return nil, err
	}
	return constModel{fam: f.name, val: val}, nil
}

// TestFamilySelectionPublishesWinner runs a real selection round over all
// built-in families and checks the published snapshot, report, and
// scoreboard are consistent: the winner's score is the minimum, the rung is
// RungFamily, and the snapshot serves the winning family.
func TestFamilySelectionPublishesWinner(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = DefaultFamilies()
	rep, err := m.TrainResilient(context.Background(), Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungFamily {
		t.Fatalf("rung = %v, want family (report: %v)", rep.Rung, rep)
	}
	if len(rep.FamilyErrors) > 0 {
		t.Fatalf("family fits failed: %v", rep.FamilyErrors)
	}
	if len(rep.FamilyScores) != 3 {
		t.Fatalf("scores for %d families, want 3: %v", len(rep.FamilyScores), rep.FamilyScores)
	}
	winScore, ok := rep.FamilyScores[rep.Family]
	if !ok {
		t.Fatalf("winner %q has no score in %v", rep.Family, rep.FamilyScores)
	}
	for name, score := range rep.FamilyScores {
		if score < winScore {
			t.Errorf("family %s scored %.6f, better than winner %s's %.6f",
				name, score, rep.Family, winScore)
		}
	}
	snap := m.Snapshot()
	if snap.Family() != rep.Family {
		t.Errorf("snapshot family %q, report family %q", snap.Family(), rep.Family)
	}
	if snap.Rung() != RungFamily {
		t.Errorf("snapshot rung %v, want family", snap.Rung())
	}
	if got := snap.FamilyScores(); len(got) != len(rep.FamilyScores) {
		t.Errorf("snapshot scores %v, want %v", got, rep.FamilyScores)
	}
	if desc := snap.Describe(); desc.Family != rep.Family {
		t.Errorf("Describe().Family = %q, want %q", desc.Family, rep.Family)
	}
	// The published winner must serve predictions.
	s := m.Samples()[0]
	if _, err := m.PredictShard(s.X, s.HW); err != nil {
		t.Errorf("PredictShard after selection: %v", err)
	}
}

// TestFamilySelectionSplineOnlyMatchesClassicPath: a selection round over
// only the spline family must fit the exact model the classic path fits —
// the refactor's behavior-preservation contract, checked bit-for-bit.
func TestFamilySelectionSplineOnlyMatchesClassicPath(t *testing.T) {
	classic := newSmallModeler(t)
	if err := classic.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	selected := newSmallModeler(t)
	selected.Families = []family.Family{spline.New()}
	if err := selected.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, got := classic.Model(), selected.Model()
	if got == nil || want == nil {
		t.Fatal("missing spline regression on one path")
	}
	if want.Spec.String() != got.Spec.String() {
		t.Fatalf("specs diverge: classic %s, selected %s", want.Spec, got.Spec)
	}
	if len(want.Coef) != len(got.Coef) {
		t.Fatalf("coef counts diverge: %d vs %d", len(want.Coef), len(got.Coef))
	}
	for i := range want.Coef {
		if math.Float64bits(want.Coef[i]) != math.Float64bits(got.Coef[i]) {
			t.Fatalf("coef %d diverges: %v vs %v", i, want.Coef[i], got.Coef[i])
		}
	}

	// Pin the published rung strings: the implicit round is "genetic" with
	// no scores and no Selection, an explicit round is "family" with the
	// winner's scores, and the stepwise floor is "stepwise".
	floor := newSmallModeler(t)
	floor.trainMu.Lock()
	cap, err := floor.captureEvaluator()
	if err == nil {
		err = floor.trainStepwise(context.Background(), 30, cap)
	}
	floor.trainMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		m         *Trainer
		rung      string
		selection bool
	}{
		{"implicit", classic, "genetic", false},
		{"explicit", selected, "family", true},
		{"stepwise", floor, "stepwise", false},
	} {
		snap := c.m.Snapshot()
		if got := snap.Rung().String(); got != c.rung {
			t.Errorf("%s: rung %q, want %q", c.name, got, c.rung)
		}
		if snap.Family() != spline.FamilyName {
			t.Errorf("%s: family %q, want spline", c.name, snap.Family())
		}
		if sel := c.m.Selection(); (sel != nil) != c.selection {
			t.Errorf("%s: Selection() = %+v, want present=%v", c.name, sel, c.selection)
		}
		scores := snap.FamilyScores()
		if !c.selection && scores != nil {
			t.Errorf("%s: scores %v, want nil", c.name, scores)
		}
		if c.selection {
			if _, ok := scores[spline.FamilyName]; !ok || len(scores) != 1 {
				t.Errorf("%s: scores %v, want the spline winner's score only", c.name, scores)
			}
		}
	}
}

// TestFamilySelectionTieBreaksDeterministically: two families with
// bit-identical scores must resolve by the seeded draw, reproducibly.
func TestFamilySelectionTieBreaksDeterministically(t *testing.T) {
	samples := smallCollector().Collect(smallApps(), 20, 1)
	ds := ToDataset(samples)
	fams := []family.Family{
		&fakeFamily{name: "beta", val: 1.5},
		&fakeFamily{name: "alpha", val: 1.5},
	}
	fc := FitnessConfig{Seed: 9}
	var winner string
	for round := 0; round < 3; round++ {
		sel, err := SelectFamily(context.Background(), ds, fc, true, true, genetic.Params{}, fams)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sel.Scores["alpha"]) != math.Float64bits(sel.Scores["beta"]) {
			t.Fatalf("scores not tied: %v", sel.Scores)
		}
		if sel.Winner != "alpha" && sel.Winner != "beta" {
			t.Fatalf("winner %q not among tied families", sel.Winner)
		}
		if round == 0 {
			winner = sel.Winner
		} else if sel.Winner != winner {
			t.Fatalf("tiebreak not deterministic: round 0 chose %q, round %d chose %q",
				winner, round, sel.Winner)
		}
	}
	// A tie is broken by the split seed: the draw must be reproducible from
	// FitnessConfig.Seed alone, not process state.
	sel, err := SelectFamily(context.Background(), ds, fc, true, true, genetic.Params{}, fams)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Winner != winner {
		t.Fatalf("same seed re-ran chose %q, want %q", sel.Winner, winner)
	}
}

// TestFamilySelectionSkipsFailingFamily: a family whose Fit errors is
// recorded and skipped; the round still publishes the best survivor.
func TestFamilySelectionSkipsFailingFamily(t *testing.T) {
	m := newSmallModeler(t)
	bad := &fakeFamily{name: "bad", err: errors.New("synthetic fit failure")}
	m.Families = []family.Family{bad, spline.New()}
	rep, err := m.TrainResilient(context.Background(), Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungFamily || rep.Family != spline.FamilyName {
		t.Fatalf("rung=%v family=%q, want family/spline (report: %v)", rep.Rung, rep.Family, rep)
	}
	if bad.fits != 1 {
		t.Errorf("failing family fitted %d times, want 1", bad.fits)
	}
	if ferr, ok := rep.FamilyErrors["bad"]; !ok || ferr == nil {
		t.Errorf("report did not record the failing family: %v", rep.FamilyErrors)
	}
	if _, scored := rep.FamilyScores["bad"]; scored {
		t.Errorf("failing family must not be scored: %v", rep.FamilyScores)
	}
	if !m.Trained() {
		t.Error("round with one failing family must still publish a model")
	}
}

// TestFamilySelectionAllFailDegradesToStepwise: when every family fails, the
// top rung errors with ErrAllFamiliesFailed and the resilient ladder falls
// to the stepwise spline floor.
func TestFamilySelectionAllFailDegradesToStepwise(t *testing.T) {
	m := newSmallModeler(t)
	m.Families = []family.Family{
		&fakeFamily{name: "bad1", err: errors.New("boom 1")},
		&fakeFamily{name: "bad2", err: errors.New("boom 2")},
	}
	rep, err := m.TrainResilient(context.Background(), Resilience{StepwiseBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rung != RungStepwise {
		t.Fatalf("rung = %v, want stepwise (report: %v)", rep.Rung, rep)
	}
	if !errors.Is(rep.GeneticErr, ErrAllFamiliesFailed) {
		t.Errorf("GeneticErr = %v, want ErrAllFamiliesFailed", rep.GeneticErr)
	}
	if len(rep.FamilyErrors) != 2 {
		t.Errorf("recorded %d family errors, want 2: %v", len(rep.FamilyErrors), rep.FamilyErrors)
	}
	// The round's error also wraps every family's own error.
	for name, ferr := range rep.FamilyErrors {
		if !errors.Is(rep.GeneticErr, ferr) {
			t.Errorf("GeneticErr = %v, does not wrap %s's error %v", rep.GeneticErr, name, ferr)
		}
	}
	if m.Snapshot().Family() != spline.FamilyName {
		t.Errorf("stepwise floor family %q, want spline", m.Snapshot().Family())
	}
}

// TestFamilySelectionCancellation: cancelling mid-round aborts the episode
// and never replaces the served snapshot.
func TestFamilySelectionCancellation(t *testing.T) {
	m := newSmallModeler(t)
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	incumbent := m.Snapshot()

	blocker := &fakeFamily{name: "slow"}
	m.Families = []family.Family{blocker, spline.New()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Train(ctx)
	if err == nil {
		t.Fatal("cancelled selection round must error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, genetic.ErrCancelled) {
		t.Errorf("err = %v, want a cancellation error", err)
	}
	if m.Snapshot() != incumbent {
		t.Error("cancelled round replaced the served snapshot")
	}

	// Cancelled mid-fit, after the spline search scored two generations: the
	// partial population is kept for the next warm start, and the served
	// snapshot stays. The trainer starts with no population of its own.
	mid := newSmallModeler(t)
	mid.Adopt(incumbent)
	mid.Families = []family.Family{spline.New(), residual.New()}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	mid.Search.OnGeneration = func(gs genetic.GenStats) {
		if gs.Gen == 1 {
			cancel()
		}
	}
	if err := mid.Train(ctx); !errors.Is(err, genetic.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if len(mid.Population()) == 0 {
		t.Error("cancelled round dropped the spline family's partial population")
	}
	if mid.Snapshot() != incumbent {
		t.Error("round cancelled mid-fit replaced the served snapshot")
	}
}

// TestSelectFamilyValidation covers the standalone harness's error paths.
func TestSelectFamilyValidation(t *testing.T) {
	samples := smallCollector().Collect(smallApps(), 10, 1)
	ds := ToDataset(samples)
	if _, err := SelectFamily(context.Background(), ds, FitnessConfig{}, true, true, genetic.Params{}, nil); err == nil {
		t.Error("no registered families must error")
	}
	fams := []family.Family{&fakeFamily{name: "a", err: fmt.Errorf("nope")}}
	sel, err := SelectFamily(context.Background(), ds, FitnessConfig{}, true, true, genetic.Params{}, fams)
	if !errors.Is(err, ErrAllFamiliesFailed) {
		t.Errorf("err = %v, want ErrAllFamiliesFailed", err)
	}
	if sel == nil || sel.Errors["a"] == nil {
		t.Errorf("partial result must carry the per-family errors: %+v", sel)
	}
}
