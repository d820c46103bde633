package simnet

import "testing"

// TreeChildren returns the ranks rank relays to in an n-node binomial
// broadcast tree, in ascending order. Rank 0 is the root; out-of-range
// ranks have no children. It is the rule tree.go states, as a function;
// protocol's treeRelay inlines it.
func TreeChildren(rank, n int) []int {
	if rank < 0 || rank >= n {
		return nil
	}
	var kids []int
	for step := 1; rank+step < n; step <<= 1 {
		if step > rank {
			kids = append(kids, rank+step)
		}
	}
	return kids
}

// TestTreeChildrenSpansAll: for every fan-out size the binomial tree must
// reach each non-root rank exactly once (it is a tree, not a DAG), and the
// hop count from the root never exceeds TreeDepth.
func TestTreeChildrenSpansAll(t *testing.T) {
	for n := 1; n <= 300; n++ {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		for r := 0; r < n; r++ {
			for _, c := range TreeChildren(r, n) {
				if c <= r || c >= n {
					t.Fatalf("n=%d: rank %d has out-of-range child %d", n, r, c)
				}
				if parent[c] != -1 {
					t.Fatalf("n=%d: rank %d has two parents (%d and %d)", n, c, parent[c], r)
				}
				parent[c] = r
			}
		}
		depth := make([]int, n)
		for r := 1; r < n; r++ {
			if parent[r] == -1 {
				t.Fatalf("n=%d: rank %d unreachable", n, r)
			}
			depth[r] = depth[parent[r]] + 1
			if depth[r] > TreeDepth(n) {
				t.Fatalf("n=%d: rank %d at depth %d exceeds bound %d", n, r, depth[r], TreeDepth(n))
			}
		}
	}
}

// TestTreeChildrenEdges pins the boundary behaviours callers rely on.
func TestTreeChildrenEdges(t *testing.T) {
	if kids := TreeChildren(0, 1); len(kids) != 0 {
		t.Errorf("singleton tree has children %v", kids)
	}
	if kids := TreeChildren(-1, 8); kids != nil {
		t.Errorf("negative rank has children %v", kids)
	}
	if kids := TreeChildren(8, 8); kids != nil {
		t.Errorf("out-of-range rank has children %v", kids)
	}
	// Root of an 8-node tree sends to ranks 1, 2, 4 — log n egress.
	got := TreeChildren(0, 8)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("root children of 8: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root children of 8: got %v want %v", got, want)
		}
	}
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 8: 3, 9: 4, 97: 7} {
		if d := TreeDepth(n); d != want {
			t.Errorf("TreeDepth(%d) = %d, want %d", n, d, want)
		}
	}
}
