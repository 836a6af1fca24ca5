// Package kmeans implements K-Means clustering with k-means++ seeding. The
// clustering service uses it to group primary tenants with similar utilization
// profiles into utilization classes (§4.1), and the replica placement code uses
// simple 1-D quantile clustering derived from the same primitives.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoPoints is returned when clustering is requested over an empty dataset.
var ErrNoPoints = errors.New("kmeans: no points")

// Result holds the outcome of a clustering run.
type Result struct {
	// Centroids holds one centroid per cluster.
	Centroids [][]float64
	// Assignments maps each input point to its cluster index.
	Assignments []int
	// Sizes holds the number of points per cluster.
	Sizes []int
	// Inertia is the sum of squared distances from each point to its centroid.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Config tunes a clustering run.
type Config struct {
	// K is the desired number of clusters. If there are fewer distinct points
	// than K, the effective number of clusters is reduced.
	K int
	// MaxIterations bounds the Lloyd loop. Zero means a default of 100.
	MaxIterations int
	// Tolerance stops the loop when no centroid moves more than this squared
	// distance. Zero means 1e-9.
	Tolerance float64
}

// validate checks the point set and normalizes the config, returning the
// point dimensionality and the effective (iteration, tolerance) knobs.
func validate(points [][]float64, cfg Config) (dim, maxIter int, tol float64, err error) {
	if len(points) == 0 {
		return 0, 0, 0, ErrNoPoints
	}
	dim = len(points[0])
	if dim == 0 {
		return 0, 0, 0, errors.New("kmeans: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return 0, 0, 0, fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	maxIter = cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol = cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	return dim, maxIter, tol, nil
}

// Cluster groups points into cfg.K clusters. Every point must have the same
// dimensionality. The rng drives the k-means++ seeding so results are
// reproducible for a fixed seed.
func Cluster(rng *rand.Rand, points [][]float64, cfg Config) (*Result, error) {
	return new(Workspace).Cluster(rng, points, cfg)
}

// ClusterFrom runs K-Means starting from the given seed centroids instead of
// k-means++ — the warm-start entry point incremental re-clustering uses to
// resume from a previous generation's converged centroids. cfg.K is ignored;
// the cluster count is len(seeds) (clamped to the point count). The seeds are
// copied, never mutated, and need not be data points. Seed dimensionality
// must match the points.
func ClusterFrom(points [][]float64, seeds [][]float64, cfg Config) (*Result, error) {
	return new(Workspace).ClusterFrom(points, seeds, cfg)
}

// Workspace is the working memory of K-Means runs: the two centroid buffers
// the Lloyd iteration alternates between, the k-means++ distances, and the
// Result itself. A caller that clusters again and again keeps one, so a run
// allocates only where it has more points or clusters than every earlier run
// had. A Result from a workspace, its slices included, is valid until the
// workspace's next run. The zero value is ready; one run uses it at a time.
type Workspace struct {
	cur, next   centroids
	assignments []int
	sizes       []int
	dists       []float64
	res         Result
}

// centroids is k rows of dim values, carved from one backing array.
type centroids struct {
	flat []float64
	rows [][]float64
}

// zeroed returns k zeroed rows of dim values.
func (c *centroids) zeroed(k, dim int) [][]float64 {
	c.flat = grow(c.flat, k*dim)
	clear(c.flat)
	c.rows = grow(c.rows, k)
	for i := range c.rows {
		c.rows[i] = c.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return c.rows
}

// grow returns s resliced to n, reallocated only when n exceeds its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Cluster is the package's Cluster in the workspace's storage.
func (w *Workspace) Cluster(rng *rand.Rand, points [][]float64, cfg Config) (*Result, error) {
	dim, maxIter, tol, err := validate(points, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	k := cfg.K
	if k > len(points) {
		k = len(points)
	}
	w.seedPlusPlus(rng, points, w.cur.zeroed(k, dim))
	return w.lloyd(points, dim, maxIter, tol), nil
}

// ClusterFrom is the package's ClusterFrom in the workspace's storage. The
// seeds must not be the centroids of a Result from w.
func (w *Workspace) ClusterFrom(points [][]float64, seeds [][]float64, cfg Config) (*Result, error) {
	dim, maxIter, tol, err := validate(points, cfg)
	if err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, errors.New("kmeans: no seed centroids")
	}
	k := len(seeds)
	if k > len(points) {
		k = len(points)
	}
	for i := 0; i < k; i++ {
		if len(seeds[i]) != dim {
			return nil, fmt.Errorf("kmeans: seed %d has dimension %d, want %d", i, len(seeds[i]), dim)
		}
	}
	for i, row := range w.cur.zeroed(k, dim) {
		copy(row, seeds[i])
	}
	return w.lloyd(points, dim, maxIter, tol), nil
}

// lloyd runs the Lloyd iteration to convergence from the starting centroids
// in w.cur and computes the final assignment and inertia.
func (w *Workspace) lloyd(points [][]float64, dim, maxIter int, tol float64) *Result {
	centroids := w.cur.rows
	k := len(centroids)
	w.assignments = grow(w.assignments, len(points))
	w.sizes = grow(w.sizes, k)
	assignments, sizes := w.assignments, w.sizes
	var iterations int
	for iterations = 1; iterations <= maxIter; iterations++ {
		// Assignment step.
		for i, p := range points {
			assignments[i] = nearest(p, centroids)
		}
		// Update step.
		newCentroids := w.next.zeroed(k, dim)
		for c := range sizes {
			sizes[c] = 0
		}
		for i, p := range points {
			c := assignments[i]
			sizes[c]++
			for d, v := range p {
				newCentroids[c][d] += v
			}
		}
		for c := range newCentroids {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its centroid.
				copy(newCentroids[c], points[farthestPoint(points, centroids, assignments)])
				continue
			}
			for d := range newCentroids[c] {
				newCentroids[c][d] /= float64(sizes[c])
			}
		}
		moved := 0.0
		for c := range centroids {
			moved += squaredDistance(centroids[c], newCentroids[c])
		}
		w.cur, w.next = w.next, w.cur
		centroids = newCentroids
		if moved <= tol {
			break
		}
	}
	// Final assignment and inertia with the converged centroids.
	inertia := 0.0
	for c := range sizes {
		sizes[c] = 0
	}
	for i, p := range points {
		assignments[i] = nearest(p, centroids)
		sizes[assignments[i]]++
		inertia += squaredDistance(p, centroids[assignments[i]])
	}
	w.res = Result{
		Centroids:   centroids,
		Assignments: assignments,
		Sizes:       sizes,
		Inertia:     inertia,
		Iterations:  iterations,
	}
	return &w.res
}

// seedPlusPlus fills the k rows of dst with initial centroids picked by the
// k-means++ strategy: the first uniformly at random, the rest proportional to
// the squared distance from the nearest chosen centroid.
func (w *Workspace) seedPlusPlus(rng *rand.Rand, points [][]float64, dst [][]float64) {
	copy(dst[0], points[rng.Intn(len(points))])
	w.dists = grow(w.dists, len(points))
	dists := w.dists
	for n := 1; n < len(dst); n++ {
		chosen := dst[:n]
		total := 0.0
		for i, p := range points {
			d := squaredDistance(p, chosen[nearest(p, chosen)])
			dists[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with existing centroids; duplicate one.
			copy(dst[n], points[rng.Intn(len(points))])
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := len(points) - 1
		for i, d := range dists {
			acc += d
			if target < acc {
				pick = i
				break
			}
		}
		copy(dst[n], points[pick])
	}
}

func nearest(p []float64, centroids [][]float64) int {
	best := 0
	bestDist := math.Inf(1)
	for c, centroid := range centroids {
		d := squaredDistance(p, centroid)
		if d < bestDist {
			bestDist = d
			best = c
		}
	}
	return best
}

func farthestPoint(points [][]float64, centroids [][]float64, assignments []int) int {
	best := 0
	bestDist := -1.0
	for i, p := range points {
		d := squaredDistance(p, centroids[assignments[i]])
		if d > bestDist {
			bestDist = d
			best = i
		}
	}
	return best
}

func squaredDistance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Assign returns the index of the centroid nearest to p. It is used to map a
// new tenant profile onto an existing clustering without re-running K-Means.
func Assign(p []float64, centroids [][]float64) (int, error) {
	if len(centroids) == 0 {
		return 0, errors.New("kmeans: no centroids")
	}
	if len(p) != len(centroids[0]) {
		return 0, fmt.Errorf("kmeans: point dimension %d does not match centroid dimension %d", len(p), len(centroids[0]))
	}
	return nearest(p, centroids), nil
}

// QuantileBuckets splits the values into n groups with (as close as possible)
// equal population by value rank, returning for each input index its bucket
// in [0, n). This is the 1-D "equal share" split used by the replica placement
// algorithm for reimage-rate and peak-utilization dimensions, and by the
// characterization's infrequent/intermediate/frequent reimage grouping (§3.3).
func QuantileBuckets(values []float64, n int) ([]int, error) {
	if len(values) == 0 {
		return nil, ErrNoPoints
	}
	if n <= 0 {
		return nil, fmt.Errorf("kmeans: bucket count must be positive, got %d", n)
	}
	type indexed struct {
		value float64
		index int
	}
	order := make([]indexed, len(values))
	for i, v := range values {
		order[i] = indexed{value: v, index: i}
	}
	// Stable ordering by value then original index for determinism.
	// Insertion sort is sufficient for the modest tenant counts involved;
	// datacenters hold a few thousand tenants at most.
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && (order[j].value < order[j-1].value ||
			(order[j].value == order[j-1].value && order[j].index < order[j-1].index)) {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	out := make([]int, len(values))
	for rank, item := range order {
		bucket := rank * n / len(values)
		if bucket >= n {
			bucket = n - 1
		}
		out[item.index] = bucket
	}
	return out, nil
}

// WeightedQuantileBuckets splits items into n buckets of (approximately) equal
// total weight by value rank. It returns the bucket of each input index. This
// implements the paper's requirement that each of the 3x3 placement classes
// hold the same amount of available storage (S/9): values are reimage rates or
// peak utilizations, weights are per-tenant available bytes.
func WeightedQuantileBuckets(values, weights []float64, n int) ([]int, error) {
	if len(values) == 0 {
		return nil, ErrNoPoints
	}
	if len(weights) != len(values) {
		return nil, fmt.Errorf("kmeans: %d weights for %d values", len(weights), len(values))
	}
	if n <= 0 {
		return nil, fmt.Errorf("kmeans: bucket count must be positive, got %d", n)
	}
	type indexed struct {
		value  float64
		weight float64
		index  int
	}
	order := make([]indexed, len(values))
	totalWeight := 0.0
	for i, v := range values {
		w := weights[i]
		if w < 0 {
			w = 0
		}
		order[i] = indexed{value: v, weight: w, index: i}
		totalWeight += w
	}
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && (order[j].value < order[j-1].value ||
			(order[j].value == order[j-1].value && order[j].index < order[j-1].index)) {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	out := make([]int, len(values))
	if totalWeight == 0 {
		// Degenerate: fall back to equal-population buckets.
		for rank, item := range order {
			bucket := rank * n / len(order)
			if bucket >= n {
				bucket = n - 1
			}
			out[item.index] = bucket
		}
		return out, nil
	}
	perBucket := totalWeight / float64(n)
	acc := 0.0
	bucket := 0
	for _, item := range order {
		// Advance to the next bucket once the current one holds its share,
		// but never split a single tenant across buckets (§4.2: a tenant
		// belongs to exactly one class).
		for bucket < n-1 && acc >= perBucket*float64(bucket+1) {
			bucket++
		}
		out[item.index] = bucket
		acc += item.weight
	}
	return out, nil
}
