package dynq_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynq"
)

// trackerState is one object's latest report, kept beside the Tracker so
// its answers can be checked against states the test recorded itself.
type trackerState struct {
	t        float64
	pos, vel []float64
}

// coord is the state's coordinate i at time t.
func (s trackerState) coord(i int, t float64) float64 {
	return s.pos[i] + s.vel[i]*(t-s.t)
}

// trackerFleet is a Tracker and a separately kept copy of what it was told.
type trackerFleet struct {
	tk     *dynq.Tracker
	states map[dynq.ObjectID]trackerState
	now    float64 // latest update time: queries must not start before it
}

func newTrackerFleet(tb testing.TB) *trackerFleet {
	tb.Helper()
	tk, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return &trackerFleet{tk: tk, states: map[dynq.ObjectID]trackerState{}}
}

func (f *trackerFleet) update(tb testing.TB, id dynq.ObjectID, t float64, pos, vel []float64) {
	tb.Helper()
	if err := f.tk.Update(id, t, pos, vel); err != nil {
		tb.Fatal(err)
	}
	f.states[id] = trackerState{t: t, pos: pos, vel: vel}
	f.now = max(f.now, t)
}

// randomTrackerFleet is n objects reporting at t=0 in a 100² space with
// velocities in [-1,1]².
func randomTrackerFleet(tb testing.TB, n int, seed int64) *trackerFleet {
	r := rand.New(rand.NewSource(seed))
	f := newTrackerFleet(tb)
	for i := 0; i < n; i++ {
		f.update(tb, dynq.ObjectID(i), 0,
			[]float64{r.Float64() * 100, r.Float64() * 100},
			[]float64{r.Float64()*2 - 1, r.Float64()*2 - 1})
	}
	return f
}

// airtrafficFleet is examples/airtraffic's 40 flights on a ring around
// (220,220), half inbound and half on crossing courses.
func airtrafficFleet(tb testing.TB) *trackerFleet {
	f := newTrackerFleet(tb)
	for i := 0; i < 40; i++ {
		angle := float64(i) * 2 * math.Pi / 40
		pos := []float64{220 + 160*math.Cos(angle), 220 + 160*math.Sin(angle)}
		speed := 6 + math.Mod(float64(i)*1.3, 3)
		heading := angle + math.Pi
		if i%2 == 1 {
			heading += 0.9
		}
		f.update(tb, dynq.ObjectID(1000+i), 0, pos, []float64{speed * math.Cos(heading), speed * math.Sin(heading)})
	}
	return f
}

// trackerVelocity draws a heading and a speed up to maxSpeed.
func trackerVelocity(r *rand.Rand, maxSpeed float64) []float64 {
	a, v := r.Float64()*2*math.Pi, r.Float64()*maxSpeed
	return []float64{v * math.Cos(a), v * math.Sin(a)}
}

// trackerCorrection is one dead-reckoning correction: an object's
// extrapolated position, nudged, with a new velocity.
type trackerCorrection struct {
	id       dynq.ObjectID
	pos, vel []float64
}

func (f *trackerFleet) correction(r *rand.Rand, n int, t float64) trackerCorrection {
	id := dynq.ObjectID(r.Intn(n))
	s := f.states[id]
	return trackerCorrection{
		id:  id,
		pos: []float64{s.coord(0, t) + r.NormFloat64(), s.coord(1, t) + r.NormFloat64()},
		vel: trackerVelocity(r, 10),
	}
}

// churnedTrackerFleet is n objects reporting at t=0 over a 1000² space
// with speeds up to 10, then 2 000 corrections over the next 20 time units.
func churnedTrackerFleet(tb testing.TB, n int, seed int64) *trackerFleet {
	r := rand.New(rand.NewSource(seed))
	f := newTrackerFleet(tb)
	for i := 0; i < n; i++ {
		f.update(tb, dynq.ObjectID(i), 0, []float64{r.Float64() * 1000, r.Float64() * 1000}, trackerVelocity(r, 10))
	}
	for k := 1; k <= 2000; k++ {
		t := float64(k) / 100
		c := f.correction(r, n, t)
		f.update(tb, c.id, t, c.pos, c.vel)
	}
	return f
}

// trackerWindow is one During query.
type trackerWindow struct {
	view   dynq.Rect
	t0, t1 float64
}

func square(x, y, w, h float64) dynq.Rect {
	return dynq.Rect{Min: []float64{x, y}, Max: []float64{x + w, y + h}}
}

// trackerQueries draws windows and routes in a space² square, sized for a
// 1000² space and scaled to the given one. A window is 20–80 wide, starts
// up to 30 after now and lasts up to 15. A route has three waypoints over
// 25 time units, starting up to 5 after now, with a 40–80 wide view.
func trackerQueries(r *rand.Rand, now, space float64, nWindows, nRoutes int) ([]trackerWindow, [][]dynq.Waypoint) {
	k := space / 1000
	windows := make([]trackerWindow, nWindows)
	for i := range windows {
		w, h := (20+r.Float64()*60)*k, (20+r.Float64()*60)*k
		t0 := now + r.Float64()*30
		windows[i] = trackerWindow{
			view: square(r.Float64()*(space-w), r.Float64()*(space-h), w, h),
			t0:   t0, t1: t0 + r.Float64()*15,
		}
	}
	routes := make([][]dynq.Waypoint, nRoutes)
	for i := range routes {
		size := (40 + r.Float64()*40) * k
		x, y := r.Float64()*(space-size), r.Float64()*(space-size)
		v := trackerVelocity(r, 20*k)
		start := now + r.Float64()*5
		for j := 0; j < 3; j++ {
			dt := 12.5 * float64(j)
			routes[i] = append(routes[i], dynq.Waypoint{
				T:    start + dt,
				View: square(x+v[0]*dt+r.NormFloat64()*10*k, y+v[1]*dt+r.NormFloat64()*10*k, size, size),
			})
		}
	}
	return windows, routes
}

// trackerCase is a fleet and the queries asked of it.
type trackerCase struct {
	name    string
	build   func(testing.TB) *trackerFleet
	windows []trackerWindow
	routes  [][]dynq.Waypoint
}

// trackerCases are the fleets the Tracker's answers are held to: random
// 500-object fleets in a 100² space, airtraffic's flights before and after
// a turn, and 5 000 churned objects with 200 windows and 50 routes.
func trackerCases() []trackerCase {
	cell := square(300, 150, 40, 40)
	sq := square(30, 30, 20, 20)
	small, smallRoutes := trackerQueries(rand.New(rand.NewSource(4)), 0, 100, 20, 10)
	churned, churnedRoutes := trackerQueries(rand.New(rand.NewSource(5)), 20, 1000, 200, 50)
	return []trackerCase{
		{
			name:    "random/1",
			build:   func(tb testing.TB) *trackerFleet { return randomTrackerFleet(tb, 500, 1) },
			windows: []trackerWindow{{sq, 0, 0}, {sq, 2.5, 2.5}, {sq, 10, 10}},
		},
		{
			name:    "random/2",
			build:   func(tb testing.TB) *trackerFleet { return randomTrackerFleet(tb, 500, 2) },
			windows: small, routes: smallRoutes,
		},
		{
			name:  "random/3",
			build: func(tb testing.TB) *trackerFleet { return randomTrackerFleet(tb, 500, 3) },
			routes: [][]dynq.Waypoint{{
				{T: 0, View: square(10, 40, 10, 10)},
				{T: 20, View: square(60, 40, 10, 10)},
			}},
		},
		{
			name:    "airtraffic",
			build:   airtrafficFleet,
			windows: []trackerWindow{{square(180, 180, 80, 80), 20, 20}, {cell, 0, 30}, {cell, 30, 60}},
			routes: [][]dynq.Waypoint{{
				{T: 0, View: square(100, 100, 60, 60)},
				{T: 12, View: square(200, 160, 60, 60)},
				{T: 25, View: square(260, 260, 60, 60)},
			}},
		},
		{
			name: "airtraffic/turned",
			build: func(tb testing.TB) *trackerFleet {
				f := airtrafficFleet(tb)
				f.update(tb, 1007, 30, []float64{320, 170}, []float64{0, -8})
				return f
			},
			windows: []trackerWindow{{cell, 30, 60}},
		},
		{
			name:    "churned/5000",
			build:   func(tb testing.TB) *trackerFleet { return churnedTrackerFleet(tb, 5000, 1) },
			windows: churned, routes: churnedRoutes,
		},
	}
}

// trackerEps bounds the rounding of an answer's times, as a distance.
const trackerEps = 1e-6

// inside reports whether the state lies in the view at time t, the view
// widened by eps.
func (s trackerState) inside(v dynq.Rect, t, eps float64) bool {
	for i := range s.pos {
		if x := s.coord(i, t); x < v.Min[i]-eps || x > v.Max[i]+eps {
			return false
		}
	}
	return true
}

// onSide reports whether the state lies on a side of the view at time t.
func (s trackerState) onSide(v dynq.Rect, t float64) bool {
	for i := range s.pos {
		x := s.coord(i, t)
		if math.Abs(x-v.Min[i]) <= trackerEps || math.Abs(x-v.Max[i]) <= trackerEps {
			return true
		}
	}
	return false
}

// routeView interpolates a route's view at time t, as the moving view of
// Along is defined.
func routeView(route []dynq.Waypoint, t float64) dynq.Rect {
	j := 0
	for j+2 < len(route) && t > route[j+1].T {
		j++
	}
	a, b := route[j], route[j+1]
	f := (t - a.T) / (b.T - a.T)
	v := dynq.Rect{Min: make([]float64, len(a.View.Min)), Max: make([]float64, len(a.View.Max))}
	for i := range v.Min {
		v.Min[i] = a.View.Min[i] + f*(b.View.Min[i]-a.View.Min[i])
		v.Max[i] = a.View.Max[i] + f*(b.View.Max[i]-a.View.Max[i])
	}
	return v
}

// checkAnswers holds answers to the states the fleet recorded, for a view
// moving as viewAt over [lo, hi] and staying within hull. Each answer is
// the object's last report, inside the view at Appear and Vanish, and
// enters at lo or across a side, and leaves at hi or across a side. Every
// object that one of 200 samples of [lo, hi] finds inside is answered,
// with the sample in [Appear, Vanish].
func checkAnswers(t *testing.T, f *trackerFleet, got []dynq.Anticipated, viewAt func(float64) dynq.Rect, hull dynq.Rect, lo, hi float64) {
	t.Helper()
	answered := make(map[dynq.ObjectID]dynq.Anticipated, len(got))
	for _, a := range got {
		s, ok := f.states[a.ID]
		if !ok {
			t.Fatalf("object %d answered but not tracked", a.ID)
		}
		if _, dup := answered[a.ID]; dup {
			t.Fatalf("object %d answered twice", a.ID)
		}
		answered[a.ID] = a
		if a.Time != s.t || !slices.Equal(a.Pos, s.pos) || !slices.Equal(a.Vel, s.vel) {
			t.Fatalf("object %d answered with state %g %v %v, last reported %g %v %v", a.ID, a.Time, a.Pos, a.Vel, s.t, s.pos, s.vel)
		}
		if !(lo <= a.Appear && a.Appear <= a.Vanish && a.Vanish <= hi) {
			t.Fatalf("object %d: episode [%g,%g] is not within [%g,%g]", a.ID, a.Appear, a.Vanish, lo, hi)
		}
		for _, end := range [][2]float64{{a.Appear, lo}, {a.Vanish, hi}} {
			at, v := end[0], viewAt(end[0])
			if !s.inside(v, at, trackerEps) {
				t.Fatalf("object %d is outside %v at %g, an end of its episode [%g,%g]", a.ID, v, at, a.Appear, a.Vanish)
			}
			if at != end[1] && !s.onSide(v, at) {
				t.Fatalf("object %d: episode [%g,%g] ends at %g inside %v, not on a side", a.ID, a.Appear, a.Vanish, at, v)
			}
		}
	}
	const samples = 200
	for id, s := range f.states {
		// Linear motion over [lo, hi] stays in the box of its two ends.
		swept := true
		for i := range s.pos {
			x0, x1 := s.coord(i, lo), s.coord(i, hi)
			swept = swept && max(x0, x1) >= hull.Min[i] && min(x0, x1) <= hull.Max[i]
		}
		if !swept {
			continue
		}
		for k := 0; k <= samples; k++ {
			at := lo + (hi-lo)*float64(k)/samples
			if !s.inside(viewAt(at), at, 0) {
				continue
			}
			a, ok := answered[id]
			if !ok {
				t.Fatalf("object %d is inside %v at %g but not answered", id, viewAt(at), at)
			}
			if at < a.Appear-trackerEps || at > a.Vanish+trackerEps {
				t.Fatalf("object %d is inside at %g, outside its episode [%g,%g]", id, at, a.Appear, a.Vanish)
			}
		}
	}
}

func checkWindow(t *testing.T, f *trackerFleet, w trackerWindow) int {
	t.Helper()
	got, err := f.tk.During(w.view, w.t0, w.t1)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, f, got, func(float64) dynq.Rect { return w.view }, w.view, w.t0, w.t1)
	return len(got)
}

func checkRoute(t *testing.T, f *trackerFleet, route []dynq.Waypoint) int {
	t.Helper()
	got, err := f.tk.Along(route)
	if err != nil {
		t.Fatal(err)
	}
	hull := dynq.Rect{Min: slices.Clone(route[0].View.Min), Max: slices.Clone(route[0].View.Max)}
	for _, w := range route[1:] {
		for i := range hull.Min {
			hull.Min[i], hull.Max[i] = min(hull.Min[i], w.View.Min[i]), max(hull.Max[i], w.View.Max[i])
		}
	}
	viewAt := func(at float64) dynq.Rect { return routeView(route, at) }
	checkAnswers(t, f, got, viewAt, hull, route[0].T, route[len(route)-1].T)
	return len(got)
}

// TestTrackerMatchesReference holds every answer of During and Along to
// positions extrapolated from the reports, pos + vel·(t − Time).
func TestTrackerMatchesReference(t *testing.T) {
	for _, c := range trackerCases() {
		t.Run(c.name, func(t *testing.T) {
			f := c.build(t)
			windowAnswers, routeAnswers := 0, 0
			for _, w := range c.windows {
				windowAnswers += checkWindow(t, f, w)
			}
			for _, r := range c.routes {
				routeAnswers += checkRoute(t, f, r)
			}
			if len(c.windows) > 0 && windowAnswers == 0 || len(c.routes) > 0 && routeAnswers == 0 {
				t.Fatalf("%d window and %d route answers: the queries test nothing", windowAnswers, routeAnswers)
			}
		})
	}
}

func TestTrackerBasics(t *testing.T) {
	tk, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Len() != 0 {
		t.Error("new tracker should be empty")
	}
	// A convoy heading east and one stray heading north.
	for i := 0; i < 5; i++ {
		err := tk.Update(dynq.ObjectID(i), 0, []float64{float64(i * 2), 50}, []float64{1, 0})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tk.Update(99, 0, []float64{50, 0}, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}
	if tk.Len() != 6 {
		t.Fatalf("len = %d", tk.Len())
	}
	// Who is in [10,20]×[45,55] at t=10? Convoy members at x0+10 ∈ [10,20].
	got, err := tk.At(dynq.Rect{Min: []float64{10, 45}, Max: []float64{20, 55}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("at t=10: %d objects, want the 5 convoy members: %v", len(got), got)
	}
	// The stray reaches y∈[45,55] when 2t ∈ [45,55] ⇒ t ∈ [22.5,27.5].
	got, err = tk.During(dynq.Rect{Min: []float64{45, 45}, Max: []float64{55, 55}}, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range got {
		if a.ID == 99 {
			found = true
			if math.Abs(a.Appear-22.5) > 1e-9 || math.Abs(a.Vanish-27.5) > 1e-9 {
				t.Errorf("stray episode = [%g,%g], want [22.5,27.5]", a.Appear, a.Vanish)
			}
		}
	}
	if !found {
		t.Error("stray not anticipated in the window")
	}
	// Along a trajectory paralleling the convoy: everyone shows up.
	along, err := tk.Along([]dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 45}, Max: []float64{12, 55}}},
		{T: 40, View: dynq.Rect{Min: []float64{40, 45}, Max: []float64{52, 55}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[dynq.ObjectID]bool{}
	for _, a := range along {
		ids[a.ID] = true
	}
	for i := 0; i < 5; i++ {
		if !ids[dynq.ObjectID(i)] {
			t.Errorf("convoy member %d missing from trajectory query", i)
		}
	}
	// Validation paths.
	if _, err := tk.At(dynq.Rect{Min: []float64{0}, Max: []float64{1}}, 50); err == nil {
		t.Error("bad rect should be rejected")
	}
	if _, err := tk.Along([]dynq.Waypoint{{T: 50, View: dynq.Rect{Min: []float64{0}, Max: []float64{1}}}}); err == nil {
		t.Error("bad waypoint rect should be rejected")
	}
}

func TestTrackerDefaultsAndErrors(t *testing.T) {
	if _, err := dynq.NewTracker(dynq.TrackerOptions{Dims: -1}); err == nil {
		t.Error("negative dims should be rejected")
	}
	tk, err := dynq.NewTracker(dynq.TrackerOptions{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Update(1, 0, []float64{1, 2, 3}, []float64{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	got, err := tk.At(dynq.Rect{Min: []float64{0, 0, 0}, Max: []float64{5, 5, 5}}, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("3-d tracker query = %v, %v", got, err)
	}
}

// An update replaces the object's state in place; a stale or wrong-dims
// one is refused and changes nothing.
func TestTrackerUpdateReplaceRemove(t *testing.T) {
	f := newTrackerFleet(t)
	f.update(t, 7, 1, []float64{5, 5}, []float64{1, 0})
	f.update(t, 7, 3, []float64{7, 5}, []float64{0, 1})
	if f.tk.Len() != 1 {
		t.Fatalf("len after replace = %d", f.tk.Len())
	}
	checkWindow(t, f, trackerWindow{square(0, 0, 20, 20), 3, 10})
	if err := f.tk.Update(7, 2, []float64{0, 0}, []float64{0, 0}); err == nil {
		t.Error("stale update should be refused")
	}
	if err := f.tk.Update(8, 3, []float64{1}, []float64{0}); err == nil {
		t.Error("wrong-dims update should be refused")
	}
	if f.tk.Len() != 1 {
		t.Fatalf("refused updates changed the tracker: len %d", f.tk.Len())
	}
	checkWindow(t, f, trackerWindow{square(0, 0, 20, 20), 3, 10})
}

// Queries that start before the latest update, and empty windows, are
// refused.
func TestTrackerQueryValidation(t *testing.T) {
	tk, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Crossing [10,20]×[0,10] from the left at speed 2: inside for t ∈ [5,10].
	if err := tk.Update(1, 0, []float64{0, 5}, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	zone := square(10, 0, 10, 10)
	got, err := tk.During(zone, 0, 100)
	if err != nil || len(got) != 1 || got[0].Appear != 5 || got[0].Vanish != 10 {
		t.Fatalf("During = %v, %v; want object 1 in [5,10]", got, err)
	}
	if _, err := tk.During(zone, 61, 60); err == nil {
		t.Error("empty window should be refused")
	}
	// A later update moves the current time, and the past is no longer
	// asked of it.
	if err := tk.Update(2, 50, []float64{0, 0}, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.At(zone, 10); err == nil {
		t.Error("query before the tracker's current time should be refused")
	}
	if _, err := tk.Along([]dynq.Waypoint{{T: 40, View: zone}, {T: 60, View: zone}}); err == nil {
		t.Error("route starting before the tracker's current time should be refused")
	}
	if _, err := tk.Along([]dynq.Waypoint{{T: 40, View: zone}}); err == nil {
		t.Error("one-waypoint route before the tracker's current time should be refused")
	}
	if got, err := tk.At(zone, 50); err != nil || len(got) != 0 {
		t.Errorf("At(50) = %v, %v; want no answers", got, err)
	}
}

// Property: after any churn of upserts, the tracker answers as the
// separately kept states say.
func TestTrackerChurnProperty(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newTrackerFleet(t)
		now := 0.0
		for step := 0; step < 300; step++ {
			id := dynq.ObjectID(r.Intn(60))
			if r.Intn(4) < 3 {
				f.update(t, id, now,
					[]float64{r.Float64() * 100, r.Float64() * 100},
					[]float64{r.Float64()*2 - 1, r.Float64()*2 - 1})
			} else {
				now += r.Float64()
			}
		}
		if f.tk.Len() != len(f.states) {
			t.Fatalf("seed %d: len %d, kept %d", seed, f.tk.Len(), len(f.states))
		}
		windows, routes := trackerQueries(r, f.now, 100, 5, 2)
		for _, w := range windows {
			checkWindow(t, f, trackerWindow{w.view, w.t0, w.t0})
		}
		for _, route := range routes {
			checkRoute(t, f, route)
		}
	}
}

// A route of one waypoint is an instant query, answered as At is.
func TestTrackerAlongOneWaypoint(t *testing.T) {
	tk, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Update(42, 0, []float64{0, 5}, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	view := square(10, 0, 10, 10)
	along, err := tk.Along([]dynq.Waypoint{{T: 7, View: view}})
	if err != nil {
		t.Fatal(err)
	}
	at, err := tk.At(view, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := dynq.Anticipated{ID: 42, Time: 0, Pos: []float64{0, 5}, Vel: []float64{2, 0}, Appear: 7, Vanish: 7}
	for name, got := range map[string][]dynq.Anticipated{"Along": along, "At": at} {
		if len(got) != 1 || got[0].ID != want.ID || got[0].Appear != 7 || got[0].Vanish != 7 ||
			!slices.Equal(got[0].Pos, want.Pos) || !slices.Equal(got[0].Vel, want.Vel) {
			t.Errorf("%s = %+v, want [%+v]", name, got, want)
		}
	}
}

// Update refuses NaN and ±Inf, which no query could answer; a finite
// value beyond float32 is kept at full precision.
func TestTrackerRefusesNonFinite(t *testing.T) {
	tk, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, u := range []struct {
			t        float64
			pos, vel []float64
		}{
			{bad, []float64{0, 0}, []float64{0, 0}},
			{0, []float64{bad, 0}, []float64{0, 0}},
			{0, []float64{0, 0}, []float64{0, bad}},
		} {
			if err := tk.Update(1, u.t, u.pos, u.vel); !errors.Is(err, dynq.ErrNonFinite) {
				t.Errorf("Update(%g, %v, %v) = %v, want ErrNonFinite", u.t, u.pos, u.vel, err)
			}
		}
	}
	if tk.Len() != 0 {
		t.Fatalf("refused updates changed the tracker: len %d", tk.Len())
	}
	if err := tk.Update(2, 0, []float64{1e300, 0}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	got, err := tk.At(dynq.Rect{Min: []float64{1e300, -1}, Max: []float64{math.Inf(1), 1}}, 0)
	if err != nil || len(got) != 1 || got[0].Pos[0] != 1e300 {
		t.Fatalf("At = %v, %v; want object 2 at 1e300", got, err)
	}
}
