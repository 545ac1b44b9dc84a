package stream

// Heap is a binary min-heap over any element type, ordered by a
// caller-supplied strict less function. It backs the k-way merges in
// this package (time-ordered update streams) and in the federated
// query layer (global-order event record streams): both need the same
// refill loop — read the minimum, replace it with its source's next
// element in one sift, pop it only when the source ends — and the
// generic form keeps the two merge cores literally the same code.
//
// The zero value is not usable; construct with NewHeap. Heap is not
// safe for concurrent use.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements on the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.siftUp(len(h.items) - 1)
}

// Min returns the minimum element. It must not be called on an empty heap.
func (h *Heap[T]) Min() T { return h.items[0] }

// ReplaceMin replaces the minimum element with x in one sift, where Pop
// then Push take two. It must not be called on an empty heap.
func (h *Heap[T]) ReplaceMin(x T) {
	h.items[0] = x
	h.siftDown(0)
}

// Pop removes and returns the minimum element. It must not be called
// on an empty heap.
func (h *Heap[T]) Pop() T {
	root := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references for the GC
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return root
}

func (h *Heap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(h.items[left], h.items[smallest]) {
			smallest = left
		}
		if right < n && h.less(h.items[right], h.items[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
