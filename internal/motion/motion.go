// Package motion implements the paper's motion model (Section 3.1):
// objects translate linearly between motion updates, each update carrying
// a validity interval and motion parameters (Equation 1). A simulator
// generates piecewise-linear trajectories matching the experimental
// workload.
package motion

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dynq/internal/geom"
)

// TimedSegment is one motion update of one object: the object moved
// linearly from Seg.Start to Seg.End during Seg.T.
type TimedSegment struct {
	ObjID uint64
	Seg   geom.Segment
}

// SimConfig describes a synthetic mobile-object population. The defaults
// (via PaperConfig) reproduce the paper's data generation: 5000 objects in
// a 100×100 space over 100 time units, re-updating approximately every 1
// time unit, moving at ≈1 length unit per time unit.
type SimConfig struct {
	Objects    int     // number of mobile objects
	Dims       int     // spatial dimensionality (paper: 2)
	WorldSize  float64 // space is [0, WorldSize]^Dims
	Duration   float64 // simulated time span [0, Duration]
	Speed      float64 // mean speed (length units per time unit)
	SpeedStd   float64 // standard deviation of per-segment speed
	UpdateMean float64 // mean time between motion updates
	UpdateStd  float64 // std-dev of time between updates
	Seed       int64   // RNG seed; runs are deterministic given a seed
}

// PaperConfig returns the workload of Section 5.
func PaperConfig() SimConfig {
	return SimConfig{
		Objects:    5000,
		Dims:       2,
		WorldSize:  100,
		Duration:   100,
		Speed:      1.0,
		SpeedStd:   0.2,
		UpdateMean: 1.0,
		UpdateStd:  0.25,
		Seed:       1,
	}
}

func (c SimConfig) validate() error {
	if c.Objects < 1 {
		return fmt.Errorf("motion: Objects must be positive, got %d", c.Objects)
	}
	if c.Dims < 1 {
		return fmt.Errorf("motion: Dims must be positive, got %d", c.Dims)
	}
	if c.WorldSize <= 0 || c.Duration <= 0 {
		return fmt.Errorf("motion: WorldSize and Duration must be positive")
	}
	if c.UpdateMean <= 0 {
		return fmt.Errorf("motion: UpdateMean must be positive")
	}
	return nil
}

// GenerateSegments produces every motion segment of every object for the
// whole duration, ordered by object then by time. Each object's segments
// tile [0, Duration] and join continuously (an update begins where the
// previous motion ended).
func GenerateSegments(cfg SimConfig) ([]TimedSegment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var out []TimedSegment
	for obj := 0; obj < cfg.Objects; obj++ {
		out = appendObjectSegments(out, cfg, uint64(obj), r)
	}
	return out, nil
}

func appendObjectSegments(out []TimedSegment, cfg SimConfig, obj uint64, r *rand.Rand) []TimedSegment {
	pos := make(geom.Point, cfg.Dims)
	for i := range pos {
		pos[i] = r.Float64() * cfg.WorldSize
	}
	t := 0.0
	for t < cfg.Duration {
		dt := cfg.UpdateMean + r.NormFloat64()*cfg.UpdateStd
		// Clamp pathological draws: updates arrive "approximately" every
		// UpdateMean units, never instantaneously.
		if dt < cfg.UpdateMean/10 {
			dt = cfg.UpdateMean / 10
		}
		if t+dt > cfg.Duration {
			dt = cfg.Duration - t
		}
		speed := cfg.Speed + r.NormFloat64()*cfg.SpeedStd
		if speed < 0 {
			speed = 0
		}
		vel := randomDirection(cfg.Dims, r)
		end := make(geom.Point, cfg.Dims)
		for i := range end {
			end[i] = clampReflect(pos[i]+vel[i]*speed*dt, cfg.WorldSize)
		}
		out = append(out, TimedSegment{
			ObjID: obj,
			Seg: geom.Segment{
				T:     geom.Interval{Lo: t, Hi: t + dt},
				Start: pos,
				End:   end,
			},
		})
		pos = end
		t += dt
	}
	return out
}

// randomDirection returns a unit vector uniform on the sphere.
func randomDirection(dims int, r *rand.Rand) geom.Point {
	v := make(geom.Point, dims)
	for {
		s := 0.0
		for i := range v {
			v[i] = r.NormFloat64()
			s += v[i] * v[i]
		}
		if s > 1e-12 {
			n := math.Sqrt(s)
			for i := range v {
				v[i] /= n
			}
			return v
		}
	}
}

// clampReflect keeps a coordinate inside [0, size] by reflecting
// overshoot back into the domain (objects bounce off the world border).
func clampReflect(x, size float64) float64 {
	for x < 0 || x > size {
		if x < 0 {
			x = -x
		}
		if x > size {
			x = 2*size - x
		}
	}
	return x
}

// Stream yields the same segments as GenerateSegments but ordered
// globally by segment start time, ties by object, modelling the arrival
// order of motion updates at the database. It is used by the
// concurrent-update tests and the monitoring example.
type Stream struct {
	segs []TimedSegment // in stream order
	next int
}

// NewStream builds a time-ordered update stream for the population. No two
// segments share a key: one object's segments start at least
// UpdateMean/10 apart.
func NewStream(cfg SimConfig) (*Stream, error) {
	segs, err := GenerateSegments(cfg)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(segs, func(a, b TimedSegment) int {
		return cmp.Or(cmp.Compare(a.Seg.T.Lo, b.Seg.T.Lo), cmp.Compare(a.ObjID, b.ObjID))
	})
	return &Stream{segs: segs}, nil
}

// Next returns the next motion update in start-time order; ok is false
// when the stream is exhausted.
func (s *Stream) Next() (TimedSegment, bool) {
	if s.next == len(s.segs) {
		return TimedSegment{}, false
	}
	s.next++
	return s.segs[s.next-1], true
}

// Remaining reports how many updates are left.
func (s *Stream) Remaining() int { return len(s.segs) - s.next }
