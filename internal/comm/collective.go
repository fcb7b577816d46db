package comm

import (
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/sim"
)

// Collectives. Every node's process calls the same collective with the
// same tag; tags are namespaced per phase internally (tag, tag+1, … up
// to tag+Dim), so callers must leave a gap of at least Dim+1 between
// concurrently used tags.

// Barrier blocks until every node has entered it (a zero-value
// all-reduce by recursive doubling: Dim exchange rounds).
func (e *Endpoint) Barrier(p *sim.Proc, tag int) error {
	_, err := e.AllReduceF64(p, tag, nil, nil)
	return err
}

// AllReduceF64 combines equal-length vectors from all nodes elementwise
// with op and returns the result on every node, by recursive doubling:
// in round d each node exchanges its partial with its dimension-d
// neighbor. op nil with empty input degenerates to a barrier.
//
// With crashed nodes present the recursive-doubling pattern cannot work
// (every node needs every neighbor), so the survivors fall back to a
// reduce onto the lowest alive node followed by a broadcast, both over
// the crash-adopted binomial tree. The fallback consumes tags up to
// tag+Size+2·Dim+1.
func (e *Endpoint) AllReduceF64(p *sim.Proc, tag int, op func(a, b fparith.F64) fparith.F64, vals []fparith.F64) ([]fparith.F64, error) {
	if e.net.anyCrashed() {
		root := e.net.lowestAlive()
		if root < 0 {
			return nil, fmt.Errorf("comm: allreduce with no nodes alive")
		}
		acc, err := e.ReduceF64(p, root, tag, op, vals)
		if err != nil {
			return nil, err
		}
		var pay []byte
		if e.id == root {
			pay = packF64(acc)
		}
		got, err := e.Broadcast(p, root, tag+e.net.Size()+e.net.Dim+1, pay)
		if err != nil {
			return nil, err
		}
		return unpackF64(got), nil
	}
	acc := append([]fparith.F64(nil), vals...)
	for d := 0; d < e.net.Dim; d++ {
		peer := cube.Neighbor(e.id, d)
		if err := e.SendF64(p, peer, tag+d, acc); err != nil {
			return nil, err
		}
		src, theirs := e.RecvF64(p, tag+d)
		if src != peer {
			return nil, fmt.Errorf("comm: allreduce round %d on node %d: message from %d, want %d", d, e.id, src, peer)
		}
		if len(theirs) != len(acc) {
			return nil, fmt.Errorf("comm: allreduce length mismatch on node %d", e.id)
		}
		for i := range acc {
			// Combine in a fixed (lower id first) order so every node
			// computes bit-identical results regardless of arrival
			// order.
			if e.id < peer {
				acc[i] = op(acc[i], theirs[i])
			} else {
				acc[i] = op(theirs[i], acc[i])
			}
		}
	}
	return acc, nil
}

// AllGatherF64 concatenates every node's chunk (ordered by node id) on
// all nodes by recursive doubling: in round d each node exchanges its
// accumulated block with its dimension-d neighbor, doubling the held
// range — Dim rounds instead of the naive N−1.
func (e *Endpoint) AllGatherF64(p *sim.Proc, tag int, vals []fparith.F64) ([]fparith.F64, error) {
	per := len(vals)
	size := e.net.Size()
	out := make([]fparith.F64, per*size)
	copy(out[e.id*per:(e.id+1)*per], vals)
	have := 1 // number of contiguous chunks held, aligned to a subcube
	base := e.id
	for d := 0; d < e.net.Dim; d++ {
		peer := cube.Neighbor(e.id, d)
		// My held range covers the aligned subcube of `have` chunks.
		myLo := base &^ (have - 1)
		block := out[myLo*per : (myLo+have)*per]
		if err := e.SendF64(p, peer, tag+d, block); err != nil {
			return nil, err
		}
		src, theirs := e.RecvF64(p, tag+d)
		if src != peer {
			return nil, fmt.Errorf("comm: allgather round %d on node %d: from %d, want %d", d, e.id, src, peer)
		}
		theirLo := peer &^ (have - 1)
		copy(out[theirLo*per:theirLo*per+len(theirs)], theirs)
		have *= 2
	}
	return out, nil
}

// AllReduceBestF64 is a whole-vector tournament all-reduce: every node
// contributes a candidate vector and all nodes end with the single
// candidate that wins the `better` comparison — the argmax pattern
// (e.g. pivot selection: vals = [magnitude, row]). `better(a, b)`
// reports whether a beats b; ties must break deterministically.
func (e *Endpoint) AllReduceBestF64(p *sim.Proc, tag int, better func(a, b []fparith.F64) bool, vals []fparith.F64) ([]fparith.F64, error) {
	best := append([]fparith.F64(nil), vals...)
	for d := 0; d < e.net.Dim; d++ {
		peer := cube.Neighbor(e.id, d)
		if err := e.SendF64(p, peer, tag+d, best); err != nil {
			return nil, err
		}
		src, theirs := e.RecvF64(p, tag+d)
		if src != peer {
			return nil, fmt.Errorf("comm: best-reduce round %d on node %d: message from %d, want %d", d, e.id, src, peer)
		}
		if better(theirs, best) {
			best = theirs
		}
	}
	return best, nil
}

// Broadcast distributes root's payload to every node along the binomial
// spanning tree (at most Dim link hops). Every node passes its own
// payload argument; only root's is used.
//
// If nodes have crashed, the survivors re-root around them: each alive
// node's effective parent is its nearest alive tree ancestor, and the
// orphaned subtrees of a dead interior node are adopted by that
// ancestor. A dead root is a partial failure the collective reports as
// an error rather than deadlocking on.
func (e *Endpoint) Broadcast(p *sim.Proc, root, tag int, payload []byte) ([]byte, error) {
	degraded := e.net.anyCrashed()
	if degraded && !e.net.alive(root) {
		return nil, &CrashedError{Node: root}
	}
	data := payload
	if e.id != root {
		want := treeParent(e.id, root)
		if degraded {
			want = e.aliveParent(root)
		}
		src, got := e.Recv(p, tag)
		if src != want {
			return nil, fmt.Errorf("comm: broadcast on node %d: from %d, want parent %d", e.id, src, want)
		}
		data = got
	}
	children := cube.Children(e.id, root, e.net.Dim)
	if degraded {
		children = e.aliveChildren(e.id, root)
	}
	for _, child := range children {
		if err := e.Send(p, child, tag, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// ReduceF64 combines vectors from all nodes onto root along the binomial
// tree (children send up; interior nodes fold). Non-root nodes return nil.
//
// With crashed nodes the survivors fold over the adopted tree (see
// Broadcast); crashed nodes' contributions are simply missing, which
// the caller must account for. Degraded mode tags each child by its
// node id (tag+Dim+child), so the namespace widens to tag+Dim+Size.
func (e *Endpoint) ReduceF64(p *sim.Proc, root, tag int, op func(a, b fparith.F64) fparith.F64, vals []fparith.F64) ([]fparith.F64, error) {
	if e.net.anyCrashed() {
		return e.reduceDegraded(p, root, tag, op, vals)
	}
	acc := append([]fparith.F64(nil), vals...)
	children := cube.Children(e.id, root, e.net.Dim)
	// Receive from children in deterministic (deepest-first) order: each
	// child sends on its own subtag to keep folding order fixed.
	for _, child := range children {
		src, theirs := e.RecvF64(p, tag+childSlot(child, e.id))
		if src != child {
			return nil, fmt.Errorf("comm: reduce on node %d: from %d, want child %d", e.id, src, child)
		}
		for i := range acc {
			acc[i] = op(acc[i], theirs[i])
		}
	}
	if e.id == root {
		return acc, nil
	}
	parent := treeParent(e.id, root)
	if err := e.SendF64(p, parent, tag+childSlot(e.id, parent), acc); err != nil {
		return nil, err
	}
	return nil, nil
}

func (e *Endpoint) reduceDegraded(p *sim.Proc, root, tag int, op func(a, b fparith.F64) fparith.F64, vals []fparith.F64) ([]fparith.F64, error) {
	if !e.net.alive(root) {
		return nil, &CrashedError{Node: root}
	}
	acc := append([]fparith.F64(nil), vals...)
	for _, child := range e.aliveChildren(e.id, root) {
		src, theirs := e.RecvF64(p, tag+e.net.Dim+child)
		if src != child {
			return nil, fmt.Errorf("comm: reduce on node %d: from %d, want child %d", e.id, src, child)
		}
		if len(theirs) != len(acc) {
			return nil, fmt.Errorf("comm: reduce length mismatch on node %d", e.id)
		}
		for i := range acc {
			acc[i] = op(acc[i], theirs[i])
		}
	}
	if e.id == root {
		return acc, nil
	}
	parent := e.aliveParent(root)
	if err := e.SendF64(p, parent, tag+e.net.Dim+e.id, acc); err != nil {
		return nil, err
	}
	return nil, nil
}

// aliveParent walks the binomial-tree ancestor chain to the nearest
// in-service node. The caller must have verified the root is alive, so
// the walk terminates.
func (e *Endpoint) aliveParent(root int) int {
	par := e.id
	for {
		par = treeParent(par, root)
		if par == root || e.net.alive(par) {
			return par
		}
	}
}

// aliveChildren lists the in-service tree children of id, with the
// subtrees of dead children adopted in place (deterministic order).
func (e *Endpoint) aliveChildren(id, root int) []int {
	var out []int
	for _, c := range cube.Children(id, root, e.net.Dim) {
		if e.net.alive(c) {
			out = append(out, c)
		} else {
			out = append(out, e.aliveChildren(c, root)...)
		}
	}
	return out
}

// treeParent is the binomial-tree parent of id for the given root: clear
// the highest set bit of the relative address.
func treeParent(id, root int) int {
	rel := id ^ root
	hb := 0
	for rel>>1 != 0 {
		rel >>= 1
		hb++
	}
	return id ^ 1<<uint(hb)
}

// childSlot gives a stable per-child tag offset: the dimension of the
// edge between child and parent.
func childSlot(child, parent int) int {
	diff := child ^ parent
	d := 0
	for diff > 1 {
		diff >>= 1
		d++
	}
	return d
}

// ScatterF64 splits root's vector into equal chunks, delivering chunk i
// to node i (recursive halving down the binomial tree). Every node
// returns its chunk.
func (e *Endpoint) ScatterF64(p *sim.Proc, root, tag int, vals []fparith.F64) ([]fparith.F64, error) {
	size := e.net.Size()
	var mine []fparith.F64
	if e.id == root {
		if len(vals)%size != 0 {
			return nil, fmt.Errorf("comm: scatter length %d not divisible by %d", len(vals), size)
		}
		per := len(vals) / size
		for id := 0; id < size; id++ {
			chunk := vals[id*per : (id+1)*per]
			if id == root {
				mine = append([]fparith.F64(nil), chunk...)
				continue
			}
			if err := e.SendF64(p, id, tag, chunk); err != nil {
				return nil, err
			}
		}
		return mine, nil
	}
	_, mine = e.RecvF64(p, tag)
	return mine, nil
}

// GatherF64 collects each node's chunk onto root, ordered by node id.
// Non-root nodes return nil.
func (e *Endpoint) GatherF64(p *sim.Proc, root, tag int, vals []fparith.F64) ([]fparith.F64, error) {
	if e.id != root {
		return nil, e.SendF64(p, root, tag, vals)
	}
	size := e.net.Size()
	chunks := make([][]fparith.F64, size)
	chunks[root] = vals
	for i := 0; i < size-1; i++ {
		src, theirs := e.RecvF64(p, tag)
		if chunks[src] != nil {
			return nil, fmt.Errorf("comm: gather got two chunks from %d", src)
		}
		chunks[src] = theirs
	}
	var out []fparith.F64
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// AllToAllF64 delivers chunk j of each node's vector to node j and
// returns the received chunks ordered by source. Implemented as Size-1
// direct sends (each e-cube routed); a personalised exchange.
func (e *Endpoint) AllToAllF64(p *sim.Proc, tag int, vals []fparith.F64) ([]fparith.F64, error) {
	size := e.net.Size()
	if len(vals)%size != 0 {
		return nil, fmt.Errorf("comm: alltoall length %d not divisible by %d", len(vals), size)
	}
	per := len(vals) / size
	out := make([]fparith.F64, len(vals))
	copy(out[e.id*per:(e.id+1)*per], vals[e.id*per:(e.id+1)*per])
	for off := 1; off < size; off++ {
		dst := e.id ^ off // pairwise exchange pattern avoids hot spots
		if err := e.SendF64(p, dst, tag, vals[dst*per:(dst+1)*per]); err != nil {
			return nil, err
		}
	}
	for off := 1; off < size; off++ {
		src, theirs := e.RecvF64(p, tag)
		if len(theirs) != per {
			return nil, fmt.Errorf("comm: alltoall chunk size mismatch from %d", src)
		}
		copy(out[src*per:(src+1)*per], theirs)
	}
	return out, nil
}

// AddF64 is the usual reduction operator.
func AddF64(a, b fparith.F64) fparith.F64 { return fparith.Add64(a, b) }
