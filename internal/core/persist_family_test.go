package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hsmodel/internal/faultinject"
)

// trainFamilyModeler trains a small modeler through the selection harness so
// its snapshot carries a family name and a scoreboard, and returns it with a
// handful of samples to predict on.
func trainFamilyModeler(t *testing.T) (*Trainer, []Sample) {
	t.Helper()
	m := newSmallModeler(t)
	m.Families = DefaultFamilies()
	if err := m.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m, smallCollector().Collect(smallApps(), 5, 2)
}

// TestSaveLoadFamilyRoundTrip: a selection-produced snapshot survives the v4
// save/load cycle with its family identity, scoreboard, provenance, and
// bit-exact predictions intact.
func TestSaveLoadFamilyRoundTrip(t *testing.T) {
	m, samples := trainFamilyModeler(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path, testShardLen); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := m.Snapshot()
	if loaded.Family() != orig.Family() || loaded.Family() == "" {
		t.Errorf("family %q, want %q", loaded.Family(), orig.Family())
	}
	if loaded.Rung() != RungFamily {
		t.Errorf("rung %v, want family", loaded.Rung())
	}
	if loaded.TrainedRows() != orig.TrainedRows() {
		t.Errorf("trained rows %d, want %d", loaded.TrainedRows(), orig.TrainedRows())
	}
	wantScores, gotScores := orig.FamilyScores(), loaded.FamilyScores()
	if len(gotScores) != len(wantScores) {
		t.Fatalf("scores %v, want %v", gotScores, wantScores)
	}
	for name, want := range wantScores {
		if got, ok := gotScores[name]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("score[%s] = %v, want %v", name, got, want)
		}
	}
	for _, s := range samples {
		want, err1 := m.PredictShard(s.X, s.HW)
		got, err2 := loaded.PredictShard(s.X, s.HW)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("round-trip prediction %v, want %v", got, want)
		}
	}
}

// TestLoadFamilyFileCorruption damages a saved v4 model file with each
// faultinject corruptor and checks every resulting load failure is one of the
// typed ErrModel* errors — never an untyped decode error and never a
// half-loaded model.
func TestLoadFamilyFileCorruption(t *testing.T) {
	m, _ := trainFamilyModeler(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "model.json")
	if err := m.Save(good, testShardLen); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	typed := []error{
		ErrModelCorrupt, ErrModelVersion, ErrModelIncomplete,
		ErrModelChecksum, ErrModelFamily,
	}
	isTyped := func(err error) bool {
		for _, want := range typed {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	corruptAndLoad := func(t *testing.T, seed uint64, mode faultinject.CorruptMode) error {
		t.Helper()
		path := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptFile(path, seed, mode); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSnapshot(path)
		if err == nil && !snap.Trained() {
			t.Fatal("load returned an untrained snapshot without an error")
		}
		return err
	}

	t.Run("torn write", func(t *testing.T) {
		err := corruptAndLoad(t, 1, faultinject.Truncate)
		if !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		err := corruptAndLoad(t, 1, faultinject.Garbage)
		if !errors.Is(err, ErrModelCorrupt) {
			t.Errorf("err = %v, want ErrModelCorrupt", err)
		}
	})
	t.Run("bit rot", func(t *testing.T) {
		// A single flipped byte can land anywhere: in payload bytes (checksum
		// mismatch), in JSON structure (corrupt), in the family or version
		// fields (their own typed errors) — or in unchecksummed provenance,
		// where the load legitimately succeeds. Sweep seeds so the flip visits
		// many offsets: every observed failure must be typed, and the sweep
		// must catch at least one.
		failures := 0
		for seed := uint64(1); seed <= 16; seed++ {
			err := corruptAndLoad(t, seed, faultinject.FlipByte)
			if err == nil {
				continue
			}
			failures++
			if !isTyped(err) {
				t.Errorf("seed %d: untyped load error: %v", seed, err)
			}
		}
		if failures == 0 {
			t.Error("no flipped byte produced a load failure; corruption undetected")
		}
	})
}
