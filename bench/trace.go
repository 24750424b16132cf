package main

import (
	"sort"
	"strings"
	"time"
)

// span is one traced call into a layer. Spans are recorded only by the
// benchmark's own code, around its calls into the repository's packages;
// the program itself carries no tracing hooks.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Name   string `json:"name"`   // "<layer>.<call>"
	// StartNS and EndNS are offsets from the recorder's origin.
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// layer returns the layer a span name belongs to: the part before the first
// dot ("topology.generate" → "topology").
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only; a nil recorder records nothing, so untraced runs share
// the traced code path at the cost of a nil check per span.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // stack of open span IDs
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (t *recorder) now() int64 { return time.Since(t.origin).Nanoseconds() }

// begin opens a span as a child of the innermost open span and returns its
// ID for end.
func (t *recorder) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: t.now(), Workload: t.workload})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *recorder) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.spans[id].EndNS = t.now()
	t.open = t.open[:len(t.open)-1]
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[i], s.StartNS, s.EndNS)
	}
	return self
}

// selfBy sums self time over spans grouped by key(span name); with key
// layer it gives each layer's self time.
func selfBy(spans []span, key func(string) string) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[key(s.Name)] += self[i]
	}
	return out
}

func spanName(name string) string { return name }

// coverage is the share of [0, wall) that top-level spans cover.
func coverage(spans []span, wall int64) float64 {
	if wall <= 0 {
		return 0
	}
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			iv = append(iv, [2]int64{s.StartNS, s.EndNS})
		}
	}
	return float64(covered(iv, 0, wall)) / float64(wall)
}
