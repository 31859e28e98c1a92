package logic

import "sync"

// This file implements hash-consing for terms. One process-wide table
// holds a canonical representative for every structurally distinct
// term; all package constructors route through it, so two structurally
// equal terms built anywhere in the process are the same pointer. That
// gives the hot paths O(1) structural operations:
//
//   - Equal fast-paths to pointer comparison (both directions — two
//     distinct canonical pointers are known unequal without a walk);
//   - Hash returns the hash cached on the node at intern time instead
//     of re-traversing the subterm;
//   - consumers (the smt Tseitin memo, the rewrite per-pass memo) key
//     maps directly by Term, relying on pointer identity.
//
// A node is canonical exactly when its hash is cached: the table sets
// the hash when it adopts a node, and Hash never returns 0, so a zero
// hash marks a hand-built node the table has not seen.
//
// Canonicalization is safe because terms are immutable: nothing in the
// codebase mutates a node after construction, so sharing a node between
// arbitrarily many parents — and between goroutines — cannot be
// observed. The table is sharded by hash and each shard is
// mutex-guarded, so concurrent construction (for example from
// core.Report's worker pool) is safe; a node's cached hash and variable
// signature are written exactly once, before the node is published
// through the shard lock, so readers of canonical nodes never race with
// that write.

// internShards is the number of lock shards of the table. Sharding
// keeps concurrent interning from the worker pool off a single mutex.
const internShards = 64

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]Term
}

// table is the process-wide hash-cons table the constructors intern
// through. It grows monotonically with the set of distinct terms ever
// built: nothing is evicted, so a long-lived process keeps every term
// any of its queries built.
var table [internShards]internShard

// Intern returns the canonical representative of t, inserting one if t
// is structurally new. Terms built by this package's constructors are
// already canonical and are returned unchanged in O(1); hand-built
// nodes are canonicalized bottom-up. The result is structurally Equal
// to t, and two interned terms are Equal if and only if they are
// pointer-identical.
func Intern(t Term) Term {
	switch n := t.(type) {
	case *BoolLit:
		if n.Val {
			return True
		}
		return False
	case *Var:
		if n.hash != 0 {
			return n
		}
		return canon(n, hashVar(n))
	case *IntLit:
		if n.hash != 0 {
			return n
		}
		return canon(n, hashInt(n.Val))
	case *EnumLit:
		if n.hash != 0 {
			return n
		}
		return canon(n, hashEnum(n))
	case *Apply:
		if n.hash != 0 {
			return n
		}
		// Canonicalize the arguments first so the shallow probe in
		// canon can compare them by pointer.
		var copied []Term
		for i, a := range n.Args {
			ca := Intern(a)
			if ca != a && copied == nil {
				copied = make([]Term, len(n.Args))
				copy(copied, n.Args[:i])
			}
			if copied != nil {
				copied[i] = ca
			}
		}
		node := n
		if copied != nil {
			node = &Apply{Op: n.Op, Args: copied}
		}
		return canon(node, hashApply(node))
	}
	return t
}

// canon looks t up in the shard for h, returning the existing
// representative or inserting t (claiming it: its hash and variable
// signature are cached, and Apply argument slices are copied so later
// caller mutations of a variadic slice cannot corrupt the table). t
// must not be canonical yet and, for Apply nodes, must have canonical
// arguments.
func canon(t Term, h uint64) Term {
	sh := &table[h%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.m[h] {
		if shallowEqual(c, t) {
			return c
		}
	}
	switch n := t.(type) {
	case *Var:
		n.hash, n.vsig = h, varBit(n.Name)
	case *IntLit:
		n.hash = h
	case *EnumLit:
		n.hash = h
	case *Apply:
		n.Args = append([]Term(nil), n.Args...)
		// The arguments are canonical, so their variable signatures
		// are available in O(1); the node's signature is their union.
		var vsig uint64
		for _, a := range n.Args {
			sig, _ := varSigFast(a)
			vsig |= sig
		}
		n.hash, n.vsig = h, vsig
	}
	if sh.m == nil {
		sh.m = make(map[uint64][]Term)
	}
	sh.m[h] = append(sh.m[h], t)
	return t
}

// shallowEqual compares a canonical term c against a candidate t one
// level deep: Apply arguments compare by pointer because both sides'
// arguments are canonical. It must decide exactly structural equality
// (Equal) for such inputs — the interning invariant "Equal iff
// pointer-identical" rests on it.
func shallowEqual(c, t Term) bool {
	switch x := c.(type) {
	case *Var:
		y, ok := t.(*Var)
		return ok && x.Name == y.Name && x.Lo == y.Lo && x.Hi == y.Hi && SameSort(x.S, y.S)
	case *IntLit:
		y, ok := t.(*IntLit)
		return ok && x.Val == y.Val
	case *EnumLit:
		y, ok := t.(*EnumLit)
		return ok && x.Val == y.Val && SameSort(x.S, y.S)
	case *Apply:
		y, ok := t.(*Apply)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if x.Args[i] != y.Args[i] {
				return false
			}
		}
		return true
	}
	return false
}
