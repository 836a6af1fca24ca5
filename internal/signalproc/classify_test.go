package signalproc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"harvest/internal/stats"
)

func periodicTrace(n, cycles int, base, amplitude float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + amplitude*math.Sin(2*math.Pi*float64(cycles)*float64(i)/float64(n))
	}
	return out
}

func constantTrace(n int, level, jitter float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = level + jitter*(rng.Float64()-0.5)
	}
	return out
}

func unpredictableTrace(n int, rng *rand.Rand) []float64 {
	// Rare large spikes over a low baseline: most spectral energy at low
	// frequencies, no dominant periodic component.
	out := make([]float64, n)
	level := 0.1
	for i := range out {
		if rng.Float64() < 0.005 {
			level = 0.2 + 0.7*rng.Float64()
		}
		// Exponential decay back to the baseline.
		level = 0.1 + (level-0.1)*0.98
		out[i] = level
	}
	return out
}

func TestClassifyPeriodic(t *testing.T) {
	trace := periodicTrace(21600, 30, 0.4, 0.25)
	p, err := Classify(trace, DefaultClassifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternPeriodic {
		t.Fatalf("pattern = %v, want periodic (profile %+v)", p.Pattern, p)
	}
	if p.DominantFrequency != 30 {
		t.Errorf("dominant frequency = %d, want 30", p.DominantFrequency)
	}
}

func TestClassifyConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trace := constantTrace(21600, 0.55, 0.04, rng)
	p, err := Classify(trace, DefaultClassifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternConstant {
		t.Fatalf("pattern = %v, want constant (CV %v)", p.Pattern, p.CV)
	}
	if math.Abs(p.Mean-0.55) > 0.02 {
		t.Errorf("mean = %v, want ~0.55", p.Mean)
	}
}

func TestClassifyUnpredictable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trace := unpredictableTrace(21600, rng)
	p, err := Classify(trace, DefaultClassifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternUnpredictable {
		t.Fatalf("pattern = %v, want unpredictable (profile %+v)", p.Pattern, p)
	}
}

func TestClassifyTooShort(t *testing.T) {
	if _, err := Classify([]float64{0.1, 0.2}, DefaultClassifierConfig()); err == nil {
		t.Fatalf("expected error for too-short trace")
	}
}

func TestClassifyZeroTrace(t *testing.T) {
	p, err := Classify(make([]float64, 1000), DefaultClassifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternConstant {
		t.Fatalf("all-zero trace should classify as constant, got %v", p.Pattern)
	}
}

func TestProfileFeatureVector(t *testing.T) {
	p := Profile{Mean: 0.3, Peak: 0.8, CV: 0.2, SpectralCentroid: 0.1}
	fv := p.AppendFeatures(nil)
	if len(fv) != NumFeatures {
		t.Fatalf("feature vector length = %d", len(fv))
	}
	if fv[0] != 0.3 || fv[1] != 0.8 || fv[2] != 0.2 || fv[3] != 0.1 {
		t.Fatalf("feature vector = %v", fv)
	}
}

func TestPatternString(t *testing.T) {
	if PatternConstant.String() != "constant" ||
		PatternPeriodic.String() != "periodic" ||
		PatternUnpredictable.String() != "unpredictable" {
		t.Errorf("unexpected pattern strings")
	}
	if Pattern(9).String() == "" {
		t.Errorf("unknown pattern should produce non-empty string")
	}
}

func TestSpectralCentroidZeroSpectrum(t *testing.T) {
	if got := spectralCentroid([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("centroid of zero spectrum = %v, want 0", got)
	}
}

func TestClassifyDailyCycleOverAMonth(t *testing.T) {
	// A month-long trace with a daily cycle should peak at bin ~30 (Fig 1b
	// shows bin 31 for a 31-day month; our synthetic month has 30 days).
	trace := periodicTrace(21600, 30, 0.5, 0.3)
	p, err := Classify(trace, DefaultClassifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternPeriodic || p.DominantFrequency != 30 {
		t.Fatalf("profile = %+v", p)
	}
}

// classifyReference is Classify as it was before it computed its spectrum in
// borrowed scratch: the same features from the public PowerSpectrum's slice.
func classifyReference(values []float64, cfg ClassifierConfig) (Profile, error) {
	mean, peak, cv := stats.Summary(values)
	spectrum, err := PowerSpectrum(values)
	if err != nil {
		return Profile{}, err
	}
	meanMag := stats.Mean(spectrum)
	centroid := spectralCentroid(spectrum)
	minBin := cfg.MinPeriodicFrequency
	if minBin < 1 {
		minBin = 1
	}
	maxBin := cfg.MaxPeriodicFrequency
	if maxBin <= 0 || maxBin > len(spectrum) {
		maxBin = len(spectrum)
	}
	domFreq := 0
	domMag := 0.0
	for bin := minBin; bin <= maxBin; bin++ {
		if m := spectrum[bin-1]; m > domMag {
			domMag = m
			domFreq = bin
		}
	}
	domStrength := 0.0
	if meanMag > 0 {
		domStrength = domMag / meanMag
	}
	periodicEnergy := harmonicEnergyFraction(spectrum, domFreq)
	profile := Profile{
		Mean:              mean,
		Peak:              peak,
		CV:                cv,
		DominantFrequency: domFreq,
		DominantStrength:  domStrength,
		PeriodicEnergy:    periodicEnergy,
		SpectralCentroid:  centroid,
	}
	switch {
	case cv <= cfg.ConstantCV:
		profile.Pattern = PatternConstant
	case domFreq >= cfg.MinPeriodicFrequency && domFreq <= maxBin &&
		periodicEnergy >= cfg.PeriodicEnergyFraction:
		profile.Pattern = PatternPeriodic
	default:
		profile.Pattern = PatternUnpredictable
	}
	return profile, nil
}

// sameProfile compares two profiles field for field, floats bit for bit.
func sameProfile(a, b Profile) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Pattern == b.Pattern && a.DominantFrequency == b.DominantFrequency &&
		same(a.Mean, b.Mean) && same(a.Peak, b.Peak) && same(a.CV, b.CV) &&
		same(a.DominantStrength, b.DominantStrength) && same(a.PeriodicEnergy, b.PeriodicEnergy) &&
		same(a.SpectralCentroid, b.SpectralCentroid)
}

// FuzzClassifyMatchesSpectrum: Classify's spectrum, computed in borrowed
// scratch, yields the profile the public PowerSpectrum's slice does, bit for
// bit, at every length. Each pair of bytes is one sample in [0,1]; the seeds
// cover even lengths with a 5-smooth half (4, 720) and a Bluestein one (14,
// 2002), and odd ones 5-smooth (5, 45) and not (7, 1001).
func FuzzClassifyMatchesSpectrum(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 5, 7, 14, 45, 720, 1001, 2002} {
		data := make([]byte, 2*n)
		rng.Read(data)
		f.Add(data)
	}
	cfg := DefaultClassifierConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		values := make([]float64, min(len(data)/2, 4096))
		if len(values) < MinClassifySamples {
			return
		}
		for i := range values {
			values[i] = float64(binary.LittleEndian.Uint16(data[2*i:])) / math.MaxUint16
		}
		got, err := Classify(values, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := classifyReference(values, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProfile(got, want) {
			t.Fatalf("n=%d: Classify = %+v, from PowerSpectrum %+v", len(values), got, want)
		}
	})
}

func TestForWindowRescalesPeriodicBand(t *testing.T) {
	month := 30 * 24 * time.Hour
	week := 7 * 24 * time.Hour
	cfg := DefaultClassifierConfig()

	scaled := cfg.ForWindow(week, month)
	if scaled.MinPeriodicFrequency != 1 {
		t.Errorf("week MinPeriodicFrequency = %d, want 1 (4*7/30 rounded, floored at 1)", scaled.MinPeriodicFrequency)
	}
	if scaled.MaxPeriodicFrequency != 168 {
		t.Errorf("week MaxPeriodicFrequency = %d, want 168 (720*7/30)", scaled.MaxPeriodicFrequency)
	}
	// Amplitude thresholds pass through untouched.
	if scaled.ConstantCV != cfg.ConstantCV || scaled.PeriodicEnergyFraction != cfg.PeriodicEnergyFraction {
		t.Error("amplitude thresholds must be window-invariant")
	}
	// Identity and degenerate cases.
	if got := cfg.ForWindow(month, month); got != cfg {
		t.Error("window == reference must be a no-op")
	}
	if got := cfg.ForWindow(0, month); got != cfg {
		t.Error("non-positive window must be a no-op")
	}
	if got := cfg.ForWindow(week, 0); got != cfg {
		t.Error("non-positive reference must be a no-op")
	}

	// A daily cycle classified over one week: 7 cycles per trace, inside the
	// rescaled band but outside the month-tuned one.
	trace := periodicTrace(7*720, 7, 0.5, 0.3)
	p, err := Classify(trace, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pattern != PatternPeriodic {
		t.Errorf("daily cycle over one week classified as %v with rescaled band, want periodic", p.Pattern)
	}
}
