package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Parent is the index of the enclosing span (-1
// for a chain's outer span); Ops is how many units of work the call
// covered, so self time divides into a per-unit figure.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Chain   string `json:"chain"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Ops     int    `json:"ops"`
}

// tracer keeps spans in memory. The chains run stage-at-a-time on one
// goroutine, so an explicit stack gives the parent links. With inner
// off only outer spans (empty stack) are recorded: that is the
// untraced base run the sum and overhead ratios divide by.
type tracer struct {
	t0    time.Time
	chain string
	inner bool
	spans []span
	stack []int
}

func newTracer(inner bool) *tracer { return &tracer{t0: time.Now(), inner: inner} }

// do times fn as a span named name covering ops units of work.
func (t *tracer) do(name string, ops int, fn func()) {
	if !t.inner && len(t.stack) > 0 {
		fn()
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Chain: t.chain, Name: name, Ops: ops})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].StartNS, t.spans[id].EndNS = int64(start), int64(end)
}

// setOps sets the op count of the span that just ended, for stages
// that only know how much work they did once it is done.
func (t *tracer) setOps(ops int) {
	if t.inner || len(t.stack) == 0 {
		t.spans[len(t.spans)-1].Ops = ops
	}
}

// layerTotal sums self time and ops over every span of one name.
type layerTotal struct {
	Self time.Duration
	Ops  int
}

// selfTimes returns, per span name, the span durations minus the part
// their child spans cover.
func selfTimes(spans []span) map[string]layerTotal {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.Self += time.Duration(s.EndNS - s.StartNS - child[i])
		lt.Ops += s.Ops
		out[s.Name] = lt
	}
	return out
}

// wall returns the duration of the named span (the first one recorded).
func wall(spans []span, name string) time.Duration {
	for _, s := range spans {
		if s.Name == name {
			return time.Duration(s.EndNS - s.StartNS)
		}
	}
	return 0
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
