// Package stream provides a BGPStream-like abstraction (§3, [54]): a
// time-ordered stream of BGP updates merged across many collectors, with
// replay from MRT archives; the root package's FilterSource and MapSource
// filter it. The inference engine consumes one merged stream exactly as
// the paper's pipeline consumes BGPStream elements.
package stream

import (
	"errors"
	"io"
	"sort"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
)

// Elem is one stream element: an update plus its collection context.
type Elem struct {
	Collector string
	Platform  collector.Platform
	Update    *bgp.Update
}

// Stream yields elements in non-decreasing time order.
type Stream interface {
	// Next returns the next element, or nil, io.EOF at end of stream.
	Next() (*Elem, error)
}

// releaser is a stream that takes back an element its Next returned, to
// overwrite on a later Next. The method is exported only so the root
// package's sources can join the chain Detector.Run starts.
type releaser interface {
	Release(*Elem)
}

// sliceStream replays a pre-sorted slice.
type sliceStream struct {
	elems []*Elem
	pos   int
}

func (s *sliceStream) Next() (*Elem, error) {
	if s.pos >= len(s.elems) {
		return nil, io.EOF
	}
	e := s.elems[s.pos]
	s.pos++
	return e, nil
}

// elemTimeSorter stably sorts elements by cached int64 UnixNano keys —
// much cheaper than calling time.Time.Before through a closure for every
// comparison on the stream-assembly hot path.
type elemTimeSorter struct {
	keys  []int64
	elems []*Elem
}

func (s *elemTimeSorter) Len() int           { return len(s.elems) }
func (s *elemTimeSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *elemTimeSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.elems[i], s.elems[j] = s.elems[j], s.elems[i]
}

// sortByTime orders elems by update time in place, stable on ties.
func sortByTime(elems []*Elem) {
	keys := make([]int64, len(elems))
	for i, e := range elems {
		keys[i] = e.Update.Time.UnixNano()
	}
	sort.Stable(&elemTimeSorter{keys: keys, elems: elems})
}

// SortedElems converts collector observations into a time-sorted element
// slice (stable for equal timestamps). The parallel replay pipeline uses
// it to materialize per-day batches without the Stream indirection.
func SortedElems(obs []collector.Observation) []*Elem {
	elems := make([]*Elem, len(obs))
	backing := make([]Elem, len(obs))
	for i, o := range obs {
		backing[i] = Elem{Collector: o.Collector.Name, Platform: o.Collector.Platform, Update: o.Update}
		elems[i] = &backing[i]
	}
	sortByTime(elems)
	return elems
}

// FromObservations builds a stream from collector observations, sorted
// by time (stable for equal timestamps).
func FromObservations(obs []collector.Observation) Stream {
	return &sliceStream{elems: SortedElems(obs)}
}

// FromElems builds a stream from elements, sorting them by time.
func FromElems(elems []*Elem) Stream {
	out := append([]*Elem(nil), elems...)
	sortByTime(out)
	return &sliceStream{elems: out}
}

// mergeStream k-way merges child streams with a binary min-heap keyed by
// (UnixNano, source index), replacing the O(k) scan per Next. The
// source-index tie-break preserves the historical ordering: on equal
// timestamps the lowest-numbered source wins.
type mergeStream struct {
	srcs    []Stream
	heap    *Heap[mergeEntry]
	primed  bool
	last    *Elem // what Next last returned, from srcs[lastSrc]
	lastSrc int
	// err is a deferred source error: a refill failure is surfaced on
	// the Next call after the element it follows is delivered.
	err error
}

type mergeEntry struct {
	key  int64
	src  int
	elem *Elem
}

// Merge combines streams into one time-ordered stream. Children must
// themselves be time-ordered. Release hands back to its child the
// element Next last returned.
func Merge(srcs ...Stream) Stream {
	return &mergeStream{srcs: srcs, heap: NewHeap(func(a, b mergeEntry) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.src < b.src
	})}
}

// read returns source i's next element as a heap entry.
func (m *mergeStream) read(i int) (mergeEntry, error) {
	e, err := m.srcs[i].Next()
	if err != nil {
		return mergeEntry{}, err
	}
	return mergeEntry{key: e.Update.Time.UnixNano(), src: i, elem: e}, nil
}

func (m *mergeStream) Next() (*Elem, error) {
	if !m.primed {
		m.primed = true
		// Prime every source even if one errors, so a caller that
		// continues past the error still merges the healthy sources;
		// the first priming error surfaces immediately.
		for i, src := range m.srcs {
			if src == nil {
				continue
			}
			x, err := m.read(i)
			if err == nil {
				m.heap.Push(x)
			} else if !errors.Is(err, io.EOF) && m.err == nil {
				m.err = err
			}
		}
	}
	if m.err != nil {
		err := m.err
		m.err = nil
		return nil, err
	}
	if m.heap.Len() == 0 {
		return nil, io.EOF
	}
	// Refill the root's source in place; it leaves the heap at its end or
	// failure, which is surfaced on the call after the element it follows.
	root := m.heap.Min()
	m.last, m.lastSrc = root.elem, root.src
	x, err := m.read(root.src)
	if err == nil {
		m.heap.ReplaceMin(x)
		return root.elem, nil
	}
	m.heap.Pop()
	if !errors.Is(err, io.EOF) {
		m.err = err
	}
	return root.elem, nil
}

func (m *mergeStream) Release(e *Elem) {
	if r, ok := m.srcs[m.lastSrc].(releaser); ok && e == m.last {
		m.last = nil
		r.Release(e)
	}
}

// FromMRT replays a single MRT archive as a stream. RIB records are
// expanded into one announcement per entry (stamped with the record
// time); BGP4MP records yield their inner update. Release takes back
// one of the last two to decode into again.
func FromMRT(r *mrt.Reader, collectorName string, platform collector.Platform) Stream {
	return &mrtStream{r: r, name: collectorName, platform: platform}
}

type mrtStream struct {
	r        *mrt.Reader
	name     string
	platform collector.Platform
	pending  []*Elem
	// msg is the one header every BGP4MP record decodes into; no Elem
	// points at it.
	msg mrt.BGP4MPMessage
	// free is what the next record decodes into, last first: a new
	// chunk's elements and, up to a chunk's length, those Release took back.
	free []*Elem
	out  [2]*Elem // the last two Next handed out, newest first
}

const mrtChunk = 32 // mrtElems allocated at once

// mrtElem is an archived update's element and the update it points to,
// allocated mrtChunk at a time. One is handed out again only after
// Release, so a consumer may retain any element it does not hand back;
// that keeps its chunk alive, and the bgp.Slab chunks its update was
// carved from.
type mrtElem struct {
	elem Elem
	upd  bgp.Update
}

func (m *mrtStream) Next() (*Elem, error) {
	for {
		if len(m.pending) > 0 {
			e := m.pending[0]
			m.pending = m.pending[1:]
			m.out = [2]*Elem{e, m.out[0]}
			return e, nil
		}
		if len(m.free) == 0 {
			chunk := make([]mrtElem, mrtChunk)
			for i := range chunk {
				chunk[i].elem.Update = &chunk[i].upd
				m.free = append(m.free, &chunk[i].elem)
			}
		}
		e := m.free[len(m.free)-1]
		rec, err := m.r.NextInto(&m.msg, e.Update)
		if err != nil {
			return nil, err
		}
		switch rec := rec.(type) {
		case *mrt.BGP4MPMessage:
			m.free = m.free[:len(m.free)-1]
			e.Collector, e.Platform = m.name, m.platform
			m.out = [2]*Elem{e, m.out[0]}
			return e, nil
		case *mrt.RIB:
			entries, err := m.r.ResolveRIB(rec)
			if err != nil {
				return nil, err
			}
			for i := range entries {
				u := entries[i].ToUpdate(rec.Time)
				m.pending = append(m.pending, &Elem{Collector: m.name, Platform: m.platform, Update: u})
			}
		case *mrt.PeerIndexTable:
			// Consumed by the reader for RIB resolution.
		}
	}
}

// Release takes back one of the two elements Next handed out last, once
// each, to decode a later record into. Any other element, and any past a
// chunk's worth of free ones (a table dump's entries), it leaves alone.
func (m *mrtStream) Release(e *Elem) {
	for i, o := range m.out {
		if o == e && e != nil && len(m.free) < mrtChunk {
			m.out[i] = nil
			m.free = append(m.free, e)
			return
		}
	}
}

// Collect drains a stream into a slice (for tests and small replays).
func Collect(s Stream) ([]*Elem, error) {
	var out []*Elem
	for {
		e, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}
