package fleet

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"loaddynamics/internal/bo"
	"loaddynamics/internal/core"
	"loaddynamics/internal/profile"
)

// stubResult wraps a model the way a one-candidate search would report it,
// so RoundsToBest is 1 instead of the empty-database 0.
func stubResult(m *core.Model) *core.Result {
	return &core.Result{Best: m, Database: []core.Candidate{{HP: m.HP, ValError: m.ValError}}}
}

// priorCapture is a buildFn stub that records the priors each rebuild ran
// with (in call order — the tests serialize rebuilds) and promotes
// unconditionally.
type priorCapture struct {
	mu    sync.Mutex
	calls [][]bo.PriorObs
	model *core.Model
}

func newPriorCapture(t *testing.T) *priorCapture {
	t.Helper()
	m := tinyModel(t, 7)
	m.ValError = 0.001 // always beats the incumbent: every rebuild promotes
	return &priorCapture{model: m}
}

func (p *priorCapture) install(f *Fleet) {
	f.buildFn = func(ctx context.Context, cfg core.Config, train, validate []float64) (*core.Result, error) {
		p.mu.Lock()
		p.calls = append(p.calls, append([]bo.PriorObs(nil), cfg.PriorObservations...))
		p.mu.Unlock()
		return stubResult(p.model), nil
	}
}

// call returns the priors the i-th rebuild ran with.
func (p *priorCapture) call(t *testing.T, i int) []bo.PriorObs {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= len(p.calls) {
		t.Fatalf("only %d rebuilds ran, wanted call %d", len(p.calls), i)
	}
	return p.calls[i]
}

// rebuildAndSettle drifts the workload and waits until its rebuild has
// fully settled (outcome recorded, rebuilding flag cleared).
func rebuildAndSettle(t *testing.T, f *Fleet, id string, wantOK int64) {
	t.Helper()
	driftWorkload(t, f, id)
	waitFor(t, 10*time.Second, "rebuild of "+id, func() bool {
		return f.m.reg.Counter("fleet.rebuilds.ok").Value()+f.m.reg.Counter("fleet.rebuilds.rejected").Value() >= wantOK
	})
	waitFor(t, 10*time.Second, "settle of "+id, func() bool {
		e := f.get(id)
		return e != nil && !e.rebuilding.Load()
	})
}

// TestRebuildRecordsOutcome: a completed rebuild lands in the prior store
// (fingerprint, point, CV error, rounds-to-best), the store persists next
// to the manifest, and the profile view exposes it.
func TestRebuildRecordsOutcome(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPriorCapture(t)
	pc.install(f)
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	rebuildAndSettle(t, f, "w", 1)

	if n := f.PriorStoreLen(); n != 1 {
		t.Fatalf("PriorStoreLen = %d, want 1", n)
	}
	if v := f.m.storeSize.Value(); v != 1 {
		t.Fatalf("profile.store.size = %d, want 1", v)
	}
	// The very first rebuild has no sibling to transfer from: cold.
	if hits, cold := f.m.warmHits.Value(), f.m.warmCold.Value(); hits != 0 || cold != 1 {
		t.Fatalf("warmstart hits/cold = %d/%d, want 0/1", hits, cold)
	}
	wp, err := f.Profile("w")
	if err != nil {
		t.Fatal(err)
	}
	if wp.LastOutcome == nil {
		t.Fatal("Profile has no recorded outcome after a promoted rebuild")
	}
	if wp.LastOutcome.RoundsToBest != 1 {
		t.Fatalf("RoundsToBest = %d, want 1", wp.LastOutcome.RoundsToBest)
	}
	if !wp.WarmStart.Cold() {
		t.Fatalf("first rebuild reported warm provenance: %+v", wp.WarmStart)
	}
	if len(wp.Fingerprint) != profile.FeatureDim || wp.Features["season_strength"] == 0 {
		t.Fatalf("profile fingerprint not exposed: %+v", wp)
	}
	if _, err := os.Stat(filepath.Join(dir, priorsName)); err != nil {
		t.Fatalf("priors.json not persisted: %v", err)
	}

	if _, err := f.Profile("nope"); err == nil {
		t.Fatal("Profile of unknown workload did not error")
	}
}

// TestWarmStartFromSibling is the fleet-level transfer test: after a
// sibling workload's rebuild is recorded, a drifted workload with a
// near-identical traffic shape warm-starts from it — the build receives
// the sibling's tuned point as a prior and the provenance names the
// sibling.
func TestWarmStartFromSibling(t *testing.T) {
	opts := testOptions(t, "")
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPriorCapture(t)
	pc.install(f)
	for _, id := range []string{"sibling", "drifted"} {
		if err := f.Add(id, tinyModel(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	rebuildAndSettle(t, f, "sibling", 1)
	if got := pc.call(t, 0); len(got) != 0 {
		t.Fatalf("sibling's build ran with priors %+v, want cold", got)
	}

	rebuildAndSettle(t, f, "drifted", 2)
	got := pc.call(t, 1)
	if len(got) != 1 {
		t.Fatalf("drifted build ran with %d priors, want 1 (from sibling)", len(got))
	}
	sib, _ := f.priors.OutcomeFor("sibling")
	if got[0].Value != sib.CVError {
		t.Fatalf("transferred value %v, want sibling CV error %v", got[0].Value, sib.CVError)
	}
	wp, err := f.Profile("drifted")
	if err != nil {
		t.Fatal(err)
	}
	if len(wp.WarmStart.Neighbors) != 1 || wp.WarmStart.Neighbors[0] != "sibling" {
		t.Fatalf("warm-start provenance %+v, want neighbor [sibling]", wp.WarmStart)
	}
	if f.m.warmHits.Value() != 1 {
		t.Fatalf("profile.warmstart.hits = %d, want 1", f.m.warmHits.Value())
	}
}

// TestWarmStartDisabled: WarmStartK < 0 keeps every rebuild cold even
// with a populated store.
func TestWarmStartDisabled(t *testing.T) {
	opts := testOptions(t, "")
	opts.WarmStartK = -1
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPriorCapture(t)
	pc.install(f)
	for _, id := range []string{"a", "b"} {
		if err := f.Add(id, tinyModel(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)
	defer f.Close()

	rebuildAndSettle(t, f, "a", 1)
	rebuildAndSettle(t, f, "b", 2)
	if got := pc.call(t, 1); len(got) != 0 {
		t.Fatalf("disabled warm-start still passed priors: %+v", got)
	}
	if f.m.warmHits.Value() != 0 || f.m.warmCold.Value() != 2 {
		t.Fatalf("warmstart hits/cold = %d/%d, want 0/2",
			f.m.warmHits.Value(), f.m.warmCold.Value())
	}
}

// TestPriorStoreSurvivesRestart: outcomes recorded before a shutdown feed
// warm-starts after a reboot from the same directory.
func TestPriorStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	f, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	pc := newPriorCapture(t)
	pc.install(f)
	for _, id := range []string{"sibling", "drifted"} {
		if err := f.Add(id, tinyModel(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.Start(ctx)
	rebuildAndSettle(t, f, "sibling", 1)
	cancel()
	f.Close()

	f2, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := f2.PriorStoreLen(); n != 1 {
		t.Fatalf("reopened PriorStoreLen = %d, want 1", n)
	}
	if v := f2.m.storeSize.Value(); v != 1 {
		t.Fatalf("reopened profile.store.size = %d, want 1", v)
	}
	pc2 := newPriorCapture(t)
	pc2.install(f2)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	f2.Start(ctx2)
	defer f2.Close()
	rebuildAndSettle(t, f2, "drifted", 1)
	got := pc2.call(t, 0)
	if len(got) != 1 {
		t.Fatalf("post-restart rebuild ran with %d priors, want 1 (store did not survive)", len(got))
	}
}

// TestMalformedPriorStoreColdStart: garbage priors.json must not fail
// boot — the fleet starts with an empty store and rebuilds run cold.
func TestMalformedPriorStoreColdStart(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, priorsName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(testOptions(t, dir))
	if err != nil {
		t.Fatalf("malformed prior store failed boot: %v", err)
	}
	defer f.Close()
	if n := f.PriorStoreLen(); n != 0 {
		t.Fatalf("PriorStoreLen = %d, want 0 after corrupt snapshot", n)
	}
	if v := f.m.storeSize.Value(); v != 0 {
		t.Fatalf("profile.store.size = %d, want 0", v)
	}
}

// TestWALTruncatedBytesGauge: a torn WAL tail left by a crash surfaces as
// the fleet.wal.truncated_bytes gauge on the next boot.
func TestWALTruncatedBytesGauge(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	f, err := Open(walOptions(testOptions(t, snapDir), walDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add("w", tinyModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe("w", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v := f.m.walTruncated.Value(); v != 0 {
		t.Fatalf("clean log reported truncated bytes: %d", v)
	}

	// Tear the tail: a partial record the next open must drop.
	seg := filepath.Join(walDir, "0000000000000001.wal")
	fh, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	f2, err := Open(walOptions(testOptions(t, snapDir), walDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if v := f2.m.walTruncated.Value(); v != int64(len(torn)) {
		t.Fatalf("fleet.wal.truncated_bytes = %d, want %d", v, len(torn))
	}
	if f2.DurabilityDegraded() {
		t.Fatal("tail recovery must not degrade durability")
	}
}
