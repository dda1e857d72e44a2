package traces

import (
	"bytes"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"loaddynamics/internal/timeseries"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		a, err := Generate(k, 2, 42)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		b, err := Generate(k, 2, 42)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				t.Fatalf("%s: generation is not deterministic at %d", k, i)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Google, 1, 1)
	b, _ := Generate(Google, 1, 2)
	same := true
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateLengthAndNonNegative(t *testing.T) {
	for _, k := range Kinds() {
		s, err := Generate(k, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if s.Len() != 3*288 {
			t.Fatalf("%s: len = %d, want %d", k, s.Len(), 3*288)
		}
		if s.Interval != BaseInterval {
			t.Fatalf("%s: interval = %v", k, s.Interval)
		}
		for i, v := range s.Values {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s: negative/NaN JAR %v at %d", k, v, i)
			}
		}
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Google, 0, 1); err == nil {
		t.Fatal("expected error for days=0")
	}
	if _, err := Generate(Kind("nope"), 1, 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestWikipediaSeasonality(t *testing.T) {
	s, err := Generate(Wikipedia, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := s.Reinterval(6) // 30-minute intervals
	if err != nil {
		t.Fatal(err)
	}
	acf := timeseries.ACF(agg.Values, 48)
	// Strong daily seasonality: high autocorrelation at lag = 1 day (48
	// half-hour intervals).
	if acf[48] < 0.8 {
		t.Fatalf("wiki ACF at 1 day = %v, want > 0.8", acf[48])
	}
}

// median returns the median of a non-empty slice.
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func TestGoogleSpikesConcentratedInFirstHalf(t *testing.T) {
	s, err := Generate(Google, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	half := s.Len() / 2
	med := median(s.Values)
	count := func(vals []float64) int {
		c := 0
		for _, v := range vals {
			if v > 2*med {
				c++
			}
		}
		return c
	}
	first, second := count(s.Values[:half]), count(s.Values[half:])
	if first <= second*2 {
		t.Fatalf("spikes first half = %d, second half = %d; want heavy concentration in first half", first, second)
	}
}

func TestAzureRegimeChange(t *testing.T) {
	s, err := Generate(Azure, 28, 9)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	early := timeseries.Mean(s.Values[:n*4/10])
	late := timeseries.Mean(s.Values[n*7/10:])
	if late < early*1.5 {
		t.Fatalf("azure regime change missing: early mean %v, late mean %v", early, late)
	}
}

func TestFacebookSmallAndVolatile(t *testing.T) {
	s, err := Generate(Facebook, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := timeseries.Mean(s.Values)
	if m > 200 {
		t.Fatalf("facebook mean JAR %v too large; should be small counts", m)
	}
	cv := timeseries.Std(s.Values) / m
	if cv < 0.2 {
		t.Fatalf("facebook coefficient of variation %v too small; trace should fluctuate strongly", cv)
	}
}

func TestLCGBurstiness(t *testing.T) {
	s, err := Generate(LCG, 28, 13)
	if err != nil {
		t.Fatal(err)
	}
	m := timeseries.Mean(s.Values)
	maxV := 0.0
	for _, v := range s.Values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 3*m {
		t.Fatalf("lcg max %v vs mean %v: bursts should reach well above the mean", maxV, m)
	}
}

func TestConfigurationsMatchTableI(t *testing.T) {
	cfgs := Configurations()
	if len(cfgs) != 14 {
		t.Fatalf("got %d configurations, want 14", len(cfgs))
	}
	wantIntervals := map[Kind][]int{
		Wikipedia: {5, 10, 30},
		LCG:       {5, 10, 30},
		Azure:     {10, 30, 60},
		Google:    {5, 10, 30},
		Facebook:  {5, 10},
	}
	got := map[Kind][]int{}
	for _, c := range cfgs {
		got[c.Kind] = append(got[c.Kind], c.IntervalMinutes)
	}
	for k, want := range wantIntervals {
		g := got[k]
		if len(g) != len(want) {
			t.Fatalf("%s: got intervals %v, want %v", k, g, want)
		}
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("%s: got intervals %v, want %v", k, g, want)
			}
		}
	}
}

func TestConfigurationsForFiltersKind(t *testing.T) {
	fb := ConfigurationsFor(Facebook)
	if len(fb) != 2 || fb[0].IntervalMinutes != 5 || fb[1].IntervalMinutes != 10 {
		t.Fatalf("facebook configs = %+v", fb)
	}
}

func TestConfigNameAndInterval(t *testing.T) {
	c := WorkloadConfig{Google, 30}
	if c.Name() != "gl-30m" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Interval() != 30*time.Minute {
		t.Fatalf("Interval = %v", c.Interval())
	}
}

func TestBuildAggregates(t *testing.T) {
	c := WorkloadConfig{Google, 30}
	s, err := c.Build(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2*48 { // 48 half-hours per day
		t.Fatalf("len = %d, want 96", s.Len())
	}
	if s.Interval != 30*time.Minute {
		t.Fatalf("interval = %v", s.Interval)
	}
	if s.Name != "gl-30m" {
		t.Fatalf("name = %q", s.Name)
	}
}

func TestBuildDefaultDays(t *testing.T) {
	s, err := WorkloadConfig{Facebook, 5}.Build(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 288 { // one day at 5 minutes
		t.Fatalf("facebook default len = %d, want 288", s.Len())
	}
}

func TestBuildRejectsBadInterval(t *testing.T) {
	if _, err := (WorkloadConfig{Google, 7}).Build(1, 1); err == nil {
		t.Fatal("expected error for non-multiple-of-5 interval")
	}
	if _, err := (WorkloadConfig{Google, 0}).Build(1, 1); err == nil {
		t.Fatal("expected error for zero interval")
	}
}

func TestKindTypes(t *testing.T) {
	if Wikipedia.Type() != "Web" || LCG.Type() != "HPC" || Azure.Type() != "Public Cloud" {
		t.Fatal("Table I types wrong")
	}
	if Google.Type() != "Data Center" || Facebook.Type() != "Data Center" {
		t.Fatal("Table I types wrong for data center workloads")
	}
	if Kind("x").Type() != "Unknown" {
		t.Fatal("unknown kind should report Unknown")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Generate(Facebook, 1, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, s.Name, s.Interval)
		if err != nil {
			return false
		}
		if got.Len() != s.Len() {
			return false
		}
		for i := range got.Values {
			if got.Values[i] != s.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVHeaderAndErrors(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("interval,jar\n0,10\n1,20\n"), "x", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Values[1] != 20 {
		t.Fatalf("parsed %+v", s.Values)
	}
	if _, err := ReadCSV(strings.NewReader(""), "x", time.Minute); err == nil {
		t.Fatal("expected error for empty CSV")
	}
	if _, err := ReadCSV(strings.NewReader("h\n0,bad\n"), "x", time.Minute); err == nil {
		t.Fatal("expected error for non-numeric data row")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	s, err := Generate(Azure, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, "az", BaseInterval)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), s.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv"), "x", time.Minute); err == nil {
		t.Fatal("expected error for missing file")
	}
}
