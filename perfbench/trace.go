package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed operation the benchmark recorded around a call into a
// layer. Spans of one request (or one set-up) share Trace; a root has
// Parent 0.
type span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"` // since the recorder's epoch
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps the run's spans in memory until the run writes them out.
// A nil recorder (the untraced run) records nothing, so call sites need no
// branch.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	last  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that is recorded
// after them.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	return r.last
}

// add records sp over [start, end], giving it a fresh id unless it carries
// a reserved one, and returns the id.
func (r *recorder) add(sp span, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp.ID == 0 {
		r.last++
		sp.ID = r.last
	}
	sp.Start, sp.End = start.Sub(r.epoch), end.Sub(r.epoch)
	r.spans = append(r.spans, sp)
	return sp.ID
}

// timed runs fn under sp and returns how long it took.
func (r *recorder) timed(sp span, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	r.add(sp, t0, t1)
	return t1.Sub(t0), err
}

// request records one request's root span over its engine call, with the
// stage times the engine reported as child spans laid end to end from the
// call's start in pipeline order (the engine returns durations, not
// offsets).
func (r *recorder) request(trace uint64, name string, o observation) {
	if r == nil {
		return
	}
	root := r.add(span{Trace: trace, Name: name, Attrs: map[string]float64{
		"sources": float64(o.sources), "sweeps": float64(o.sweeps),
	}}, o.start, o.end)
	t := o.start
	for _, st := range o.stages {
		if st.d <= 0 {
			continue
		}
		r.add(span{Trace: trace, Parent: root, Name: "stage." + st.name}, t, t.Add(st.d))
		t = t.Add(st.d)
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; a child's time outside the parent's interval does not
// count.
func selfTime(parent span, children []span) time.Duration {
	type interval struct{ lo, hi time.Duration }
	var ivs []interval
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			covered += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.End - parent.Start - covered
}

// meanRequestSelf is the mean self time of the recorded request roots: the
// engine time their stage spans do not account for.
func (r *recorder) meanRequestSelf() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64][]span{}
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var total time.Duration
	n := 0
	for _, sp := range r.spans {
		if sp.Parent == 0 && sp.Trace < setupTrace && sp.Name != "replay" {
			total += selfTime(sp, children[sp.ID])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
