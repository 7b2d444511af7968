package stats

import (
	"math"
	"sort"
)

// Sketch accuracy contract
//
// Sketch is a bounded, mergeable quantile sketch: a sparse log-scale
// histogram (DDSketch-style) with growth factor γ = 1.02. Its guarantees,
// which the mesh experiments' sketch mode and the tests in
// sketch_test.go rely on, are:
//
//   - Quantile(q) is within 1 % relative error of the exact-mode answer
//     for the same observations: every non-zero value v lands in the
//     bucket (γ^(i-1), γ^i] and is reported as the bucket midpoint
//     2γ^i/(γ+1), so |reported−v|/|v| ≤ (γ−1)/(γ+1) ≈ 0.99 %. Ranks are
//     exact (counts are integral), so the error is purely in value
//     resolution, never in which order statistic is consulted.
//   - N, Mean, Min and Max are exact: the count and Σv are tracked on
//     the side in full precision, and Quantile(0)/Quantile(1) return the
//     tracked exact extremes.
//   - Memory is bounded by the dynamic range, not the observation count:
//     one bucket per occupied log-scale bin, at most
//     ⌈log(max/min)/log γ⌉ + 2 entries — observations spanning twelve
//     decades fit in ~1400 buckets — so a recorder absorbing 10⁶ flows
//     costs the same as one absorbing 10³.
//   - Merge is exact over sketches: merging two sketches yields the same
//     state as sketching the concatenated observation streams.
//
// Values with |v| < sketchMinVal collapse into a dedicated zero bucket
// (reported as 0); negative values mirror positives in sign-tagged keys.
const (
	sketchGamma  = 1.02
	sketchMinVal = 1e-12
)

var sketchLogGamma = math.Log(sketchGamma)

// Sketch is the bounded quantile sketch behind Sample's sketch mode. The
// zero value is NOT ready to use; call NewSketch.
type Sketch struct {
	bins map[int32]int64 // log-bucket index (sign-tagged) → count
	zero int64           // count of |v| < sketchMinVal
	n    int64
	sum  float64
	min  float64
	max  float64
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{bins: make(map[int32]int64)}
}

// sketchKey maps a non-zero magnitude to its bucket index and tags the
// sign in the low bit (negative values mirror positive buckets).
func sketchKey(v float64) int32 {
	a := v
	neg := false
	if a < 0 {
		a, neg = -a, true
	}
	i := int32(math.Ceil(math.Log(a) / sketchLogGamma))
	k := i << 1
	if neg {
		k |= 1
	}
	return k
}

// sketchRep returns the representative value of a bucket key: the
// midpoint 2γ^i/(γ+1) of (γ^(i-1), γ^i], sign restored.
func sketchRep(k int32) float64 {
	i := k >> 1
	v := math.Exp(float64(i)*sketchLogGamma) * 2 / (sketchGamma + 1)
	if k&1 != 0 {
		return -v
	}
	return v
}

// Add records one observation.
func (sk *Sketch) Add(v float64) {
	if sk.n == 0 || v < sk.min {
		sk.min = v
	}
	if sk.n == 0 || v > sk.max {
		sk.max = v
	}
	sk.n++
	sk.sum += v
	if math.Abs(v) < sketchMinVal {
		sk.zero++
		return
	}
	sk.bins[sketchKey(v)]++
}

// Merge folds o into sk; o is left untouched.
func (sk *Sketch) Merge(o *Sketch) {
	if o.n == 0 {
		return
	}
	if sk.n == 0 || o.min < sk.min {
		sk.min = o.min
	}
	if sk.n == 0 || o.max > sk.max {
		sk.max = o.max
	}
	sk.n += o.n
	sk.sum += o.sum
	sk.zero += o.zero
	for k, c := range o.bins {
		sk.bins[k] += c
	}
}

// Reset empties the sketch, keeping its bucket map for reuse.
func (sk *Sketch) Reset() {
	for k := range sk.bins {
		delete(sk.bins, k)
	}
	*sk = Sketch{bins: sk.bins}
}

// N reports the observation count.
func (sk *Sketch) N() int { return int(sk.n) }

// Mean returns the exact arithmetic mean, or NaN when empty.
func (sk *Sketch) Mean() float64 {
	if sk.n == 0 {
		return math.NaN()
	}
	return sk.sum / float64(sk.n)
}

// Min returns the exact smallest observation.
func (sk *Sketch) Min() float64 {
	if sk.n == 0 {
		return math.NaN()
	}
	return sk.min
}

// Max returns the exact largest observation.
func (sk *Sketch) Max() float64 {
	if sk.n == 0 {
		return math.NaN()
	}
	return sk.max
}

// sortedBins returns the occupied buckets in ascending representative-
// value order: negatives (descending index), the zero bucket, positives
// (ascending index).
func (sk *Sketch) sortedBins() ([]int32, []int64) {
	keys := make([]int32, 0, len(sk.bins)+1)
	for k := range sk.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return sketchRep(keys[a]) < sketchRep(keys[b])
	})
	counts := make([]int64, 0, len(keys)+1)
	ordered := make([]int32, 0, len(keys)+1)
	placedZero := sk.zero == 0
	for _, k := range keys {
		if !placedZero && sketchRep(k) > 0 {
			ordered = append(ordered, math.MinInt32) // zero-bucket marker
			counts = append(counts, sk.zero)
			placedZero = true
		}
		ordered = append(ordered, k)
		counts = append(counts, sk.bins[k])
	}
	if !placedZero {
		ordered = append(ordered, math.MinInt32)
		counts = append(counts, sk.zero)
	}
	return ordered, counts
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), mirroring exact mode's
// linear interpolation between adjacent order statistics, with each
// order statistic resolved to its bucket's representative (≤1 % relative
// error). The endpoints are the exact extremes.
func (sk *Sketch) Quantile(q float64) float64 {
	if sk.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sk.min
	}
	if q >= 1 {
		return sk.max
	}
	keys, counts := sk.sortedBins()
	// statAt resolves the k-th order statistic (0-based) to a value.
	statAt := func(k int64) float64 {
		if k <= 0 {
			return sk.min
		}
		if k >= sk.n-1 {
			return sk.max
		}
		cum := int64(0)
		for i, c := range counts {
			cum += c
			if k < cum {
				if keys[i] == math.MinInt32 {
					return 0
				}
				v := sketchRep(keys[i])
				// The representative may poke past the tracked exact
				// extremes; an order statistic never can.
				return math.Min(math.Max(v, sk.min), sk.max)
			}
		}
		return sk.max
	}
	pos := q * float64(sk.n-1)
	lo := int64(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= sk.n {
		return statAt(lo)
	}
	return statAt(lo)*(1-frac) + statAt(lo+1)*frac
}

// FractionWithin reports the fraction of observations v with |v| ≤
// bound, resolved at bucket granularity (each bucket counts entirely in
// or out by its representative).
func (sk *Sketch) FractionWithin(bound float64) float64 {
	if sk.n == 0 {
		return math.NaN()
	}
	in := sk.zero
	for k, c := range sk.bins {
		if math.Abs(sketchRep(k)) <= bound {
			in += c
		}
	}
	return float64(in) / float64(sk.n)
}
