package sat

// varHeap is a max-heap of variables ordered by branching activity,
// with a position index so arbitrary variables can be updated or
// removed in O(log n). It is the classic MiniSat order_heap.
type varHeap struct {
	heap     []Var
	indices  []int // indices[v] = position of v in heap, or -1
	activity *[]float64
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

// grow ensures index capacity for variable v.
func (h *varHeap) grow(v Var) {
	for len(h.indices) <= int(v) {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.indices[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.indices[v] = i
}

// insert adds v if absent.
func (h *varHeap) insert(v Var) {
	h.grow(v)
	if h.contains(v) {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.percolateUp(len(h.heap) - 1)
}

// removeMax pops the highest-activity variable.
func (h *varHeap) removeMax() Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.percolateDown(0)
	}
	return v
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.percolateUp(h.indices[v])
		h.percolateDown(h.indices[v])
	}
}
