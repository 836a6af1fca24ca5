package signalproc

import (
	"fmt"
	"math"
	"time"

	"harvest/internal/stats"
)

// Pattern is the coarse utilization behaviour of a primary tenant (§3.2).
type Pattern int

const (
	// PatternConstant marks tenants whose utilization is roughly flat
	// (e.g. web crawlers, data scrubbers). Most tenants fall here.
	PatternConstant Pattern = iota
	// PatternPeriodic marks tenants with strong diurnal or weekly cycles
	// (typically user-facing services).
	PatternPeriodic
	// PatternUnpredictable marks tenants dominated by rare, aperiodic events
	// (development and testing environments).
	PatternUnpredictable

	// NumPatterns is the number of distinct patterns.
	NumPatterns = 3
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternConstant:
		return "constant"
	case PatternPeriodic:
		return "periodic"
	case PatternUnpredictable:
		return "unpredictable"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ClassifierConfig tunes the pattern classifier. The defaults reproduce the
// qualitative splits of the paper's characterization.
type ClassifierConfig struct {
	// ConstantCV is the coefficient-of-variation threshold below which a
	// trace is considered roughly constant.
	ConstantCV float64
	// PeriodicEnergyFraction is the minimum fraction of the non-DC spectral
	// energy that must be concentrated around the dominant bin and its first
	// harmonics for a trace to count as periodic. Periodic traces concentrate
	// energy in a few sharp peaks (Fig 1b); unpredictable traces spread it
	// over many low-frequency bins (Fig 1d).
	PeriodicEnergyFraction float64
	// MinPeriodicFrequency and MaxPeriodicFrequency bound the bin index (in
	// cycles per trace) considered a plausible periodic signal. For a
	// one-month trace, daily cycles land near bin 30 and weekly near bin 4;
	// bins 1-3 correspond to rare events, not service periodicity.
	MinPeriodicFrequency int
	MaxPeriodicFrequency int
}

// DefaultClassifierConfig returns the thresholds used throughout the repo.
// The frequency band is expressed in cycles per trace and tuned for the
// paper's one-month analysis window; use ForWindow when classifying a window
// of a different length.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{
		ConstantCV:             0.12,
		PeriodicEnergyFraction: 0.35,
		MinPeriodicFrequency:   4,
		MaxPeriodicFrequency:   720,
	}
}

// ForWindow rescales the periodic frequency band from the reference window
// the thresholds were tuned for (the paper's one month) to an actual
// analysis window. Bin indexes are cycles per trace, so a daily cycle that
// lands at bin 30 in a one-month window lands at bin 7 in a one-week window;
// without this rescaling a short live-telemetry window would reject every
// periodic tenant. Amplitude thresholds (ConstantCV, PeriodicEnergyFraction)
// are window-invariant and pass through unchanged. Non-positive arguments or
// window == reference return the config unmodified.
func (c ClassifierConfig) ForWindow(window, reference time.Duration) ClassifierConfig {
	if window <= 0 || reference <= 0 || window == reference {
		return c
	}
	ratio := float64(window) / float64(reference)
	scaled := c
	if c.MinPeriodicFrequency > 0 {
		scaled.MinPeriodicFrequency = int(math.Round(float64(c.MinPeriodicFrequency) * ratio))
		if scaled.MinPeriodicFrequency < 1 {
			scaled.MinPeriodicFrequency = 1
		}
	}
	if c.MaxPeriodicFrequency > 0 {
		scaled.MaxPeriodicFrequency = int(math.Round(float64(c.MaxPeriodicFrequency) * ratio))
		if scaled.MaxPeriodicFrequency < scaled.MinPeriodicFrequency {
			scaled.MaxPeriodicFrequency = scaled.MinPeriodicFrequency
		}
	}
	return scaled
}

// Profile captures the frequency-domain features of a utilization trace.
// It is both the classification input and the feature vector handed to the
// K-Means clustering that forms utilization classes (§4.1).
type Profile struct {
	Pattern Pattern
	// Mean and Peak are the time-domain average and maximum utilization.
	Mean float64
	Peak float64
	// CV is the coefficient of variation of the trace.
	CV float64
	// DominantFrequency is the strongest eligible non-DC bin (cycles per
	// trace) within the configured periodic band.
	DominantFrequency int
	// DominantStrength is the ratio of the strongest bin to the mean bin.
	DominantStrength float64
	// PeriodicEnergy is the fraction of non-DC spectral energy concentrated
	// around the dominant bin and its first harmonics.
	PeriodicEnergy float64
	// SpectralCentroid summarizes where the spectral mass sits; low values
	// indicate energy concentrated in rare events (unpredictable traces).
	SpectralCentroid float64
}

// FeatureVector returns the numeric features used for K-Means clustering.
func (p Profile) FeatureVector() []float64 {
	return []float64{p.Mean, p.Peak, p.CV, p.SpectralCentroid}
}

// MinClassifySamples is the shortest trace Classify accepts — callers
// deciding whether a tenant's history window is usable (e.g. a ring
// refilling after eviction) should test against it rather than guessing.
const MinClassifySamples = 4

// Classify analyses a utilization trace (values in [0,1]) and returns its
// profile. It mirrors the paper's use of the FFT to separate periodic,
// constant, and unpredictable tenants.
func Classify(values []float64, cfg ClassifierConfig) (Profile, error) {
	if len(values) < MinClassifySamples {
		return Profile{}, fmt.Errorf("signalproc: trace too short to classify (%d samples)", len(values))
	}
	mean, peak, cv := stats.Summary(values)

	spectrum, err := PowerSpectrum(values)
	if err != nil {
		return Profile{}, err
	}
	meanMag := stats.Mean(spectrum)
	centroid := spectralCentroid(spectrum)

	// Find the strongest bin inside the plausible periodic band.
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

// harmonicEnergyFraction returns the share of the total non-DC spectral energy
// held by the dominant bin, its immediate neighbours, and its first three
// harmonics (also with one-bin slack). A value near 1 means the series is a
// clean periodic signal; values well below 0.3 indicate broadband energy from
// aperiodic events.
func harmonicEnergyFraction(spectrum []float64, domFreq int) float64 {
	if domFreq <= 0 {
		return 0
	}
	total := 0.0
	for _, m := range spectrum {
		total += m * m
	}
	if total == 0 {
		return 0
	}
	captured := 0.0
	for harmonic := 1; harmonic <= 4; harmonic++ {
		center := domFreq * harmonic
		for bin := center - 1; bin <= center+1; bin++ {
			if bin >= 1 && bin <= len(spectrum) {
				captured += spectrum[bin-1] * spectrum[bin-1]
			}
		}
	}
	if captured > total {
		captured = total
	}
	return captured / total
}

// spectralCentroid returns the magnitude-weighted mean bin index normalized
// by the number of bins, i.e. a value in (0, 1]. Energy concentrated in low
// frequencies (rare events) yields a small centroid.
func spectralCentroid(spectrum []float64) float64 {
	total := 0.0
	weighted := 0.0
	for i, m := range spectrum {
		total += m
		weighted += float64(i+1) * m
	}
	if total == 0 {
		return 0
	}
	return weighted / total / float64(len(spectrum))
}
