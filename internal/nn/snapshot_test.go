package nn

import (
	"math/rand"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	m := newTestNet(t, Config{1, 6, 2, 1}, 31)
	hist := []float64{0.1, 0.4, 0.9, 0.2}
	want, err := m.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	got, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	if want != have {
		t.Fatalf("prediction changed across snapshot: %v vs %v", want, have)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	m := newTestNet(t, Config{1, 4, 1, 1}, 32)
	snap := m.Snapshot()
	orig := snap.Weights[0][0]
	m.w.flat[0] = 999
	if snap.Weights[0][0] != orig {
		t.Fatal("snapshot aliases live weights")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{}); err == nil {
		t.Fatal("expected error for empty snapshot")
	}
	m, err := NewLSTM(Config{1, 3, 1, 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	snap.Weights = snap.Weights[:2]
	if _, err := FromSnapshot(snap); err == nil {
		t.Fatal("expected error for missing tensors")
	}
	snap = m.Snapshot()
	snap.Weights[1] = snap.Weights[1][:1]
	if _, err := FromSnapshot(snap); err == nil {
		t.Fatal("expected error for truncated tensor")
	}
}
