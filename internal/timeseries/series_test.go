package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestReintervalSums(t *testing.T) {
	s := NewSeries("x", 5*time.Minute, []float64{1, 2, 3, 4, 5, 6, 7})
	got, err := s.Reinterval(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != 15*time.Minute {
		t.Fatalf("interval = %v, want 15m", got.Interval)
	}
	want := []float64{6, 15} // trailing 7 dropped
	if len(got.Values) != 2 || got.Values[0] != want[0] || got.Values[1] != want[1] {
		t.Fatalf("values = %v, want %v", got.Values, want)
	}
}

func TestReintervalFactorOne(t *testing.T) {
	s := NewSeries("x", time.Minute, []float64{1, 2, 3})
	got, err := s.Reinterval(1)
	if err != nil {
		t.Fatal(err)
	}
	got.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Reinterval(1) must copy, not alias")
	}
}

func TestReintervalRejectsNonPositive(t *testing.T) {
	s := NewSeries("x", time.Minute, []float64{1})
	if _, err := s.Reinterval(0); err == nil {
		t.Fatal("expected error for factor 0")
	}
	if _, err := s.Reinterval(-2); err == nil {
		t.Fatal("expected error for negative factor")
	}
}

// Property: total mass is conserved up to the dropped partial bucket.
func TestReintervalConservesMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		factor := 1 + rng.Intn(7)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		s := NewSeries("p", time.Minute, vals)
		agg, err := s.Reinterval(factor)
		if err != nil {
			return false
		}
		kept := (n / factor) * factor
		var wantSum float64
		for _, v := range vals[:kept] {
			wantSum += v
		}
		var gotSum float64
		for _, v := range agg.Values {
			gotSum += v
		}
		return math.Abs(gotSum-wantSum) < 1e-9*(1+wantSum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSplitProportions(t *testing.T) {
	vals := make([]float64, 100)
	s := NewSeries("x", time.Minute, vals)
	sp := DefaultSplit(s)
	if sp.Train.Len() != 60 || sp.Validate.Len() != 20 || sp.Test.Len() != 20 {
		t.Fatalf("split = %d/%d/%d, want 60/20/20", sp.Train.Len(), sp.Validate.Len(), sp.Test.Len())
	}
}

// Property: the three split parts always cover the series exactly, in order.
func TestSplitCoversSeries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		s := NewSeries("c", time.Minute, vals)
		sp := SplitFractions(s, rng.Float64(), rng.Float64()/2)
		if sp.Train.Len()+sp.Validate.Len()+sp.Test.Len() != n {
			return false
		}
		idx := 0
		for _, part := range []*Series{sp.Train, sp.Validate, sp.Test} {
			for _, v := range part.Values {
				if v != float64(idx) {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsShapeAndContent(t *testing.T) {
	ws, err := Windows([]float64{1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws))
	}
	if ws[0].Input[0] != 1 || ws[0].Input[1] != 2 || ws[0].Target != 3 {
		t.Fatalf("window 0 = %+v", ws[0])
	}
	if ws[2].Input[0] != 3 || ws[2].Input[1] != 4 || ws[2].Target != 5 {
		t.Fatalf("window 2 = %+v", ws[2])
	}
}

func TestWindowsErrors(t *testing.T) {
	if _, err := Windows([]float64{1, 2}, 0); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := Windows([]float64{1, 2}, 2); err == nil {
		t.Fatal("expected error when len == n")
	}
}

func TestWindowsWithContextCoversAllValues(t *testing.T) {
	ctx := []float64{10, 11, 12}
	vals := []float64{13, 14}
	ws, err := WindowsWithContext(ctx, vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One window per element of vals: targets 13 and 14.
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if ws[0].Target != 13 || ws[1].Target != 14 {
		t.Fatalf("targets = %v, %v", ws[0].Target, ws[1].Target)
	}
	if ws[1].Input[0] != 11 || ws[1].Input[2] != 13 {
		t.Fatalf("window 1 input = %v", ws[1].Input)
	}
}

func TestWindowsWithContextShortContext(t *testing.T) {
	// Context shorter than n: earliest targets are skipped but later ones
	// still produced.
	ws, err := WindowsWithContext([]float64{1}, []float64{2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].Target != 3 {
		t.Fatalf("ws = %+v", ws)
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad bounds")
		}
	}()
	NewSeries("x", time.Minute, []float64{1, 2}).Slice(1, 5)
}
