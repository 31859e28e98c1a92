package rewrite

import (
	"math"
	"slices"
	"sync"

	"repro/internal/logic"
)

// Replayed root propagation. A router's seed is the session's base seed
// with the router's cone re-encoded, so the root conjunction of every
// router seed repeats the base seed's first step and S14 rounds almost
// step for step: on the 60-router fabric of netperf's whatif-edits the
// base seed's root has 1,213 raw conjuncts, settles to 974 and takes
// 831 substitution steps in 9 rounds, and a router's root holds 17
// fresh raw conjuncts on average, recomputes 27 steps and takes 779
// from the reference (fabric-stream's 300-router fabric: 310 raw
// conjuncts, 3 fresh, 4 steps recomputed and 280 taken). A Reference
// records the base seed's root once (Record); a later root conjunction
// simplified with the reference attached (Simplifier.Ref) replays it
// from its raw conjuncts.
//
// The raw step replaces the root's first step: normalizing every raw
// conjunct (twice: the child pass, then the rebuilt root's), interning
// the rebuilt root and settling the whole list (S4, S6, S13). The
// reference records, before round 0, each raw conjunct's normal form
// as the operands S4 flattens it into, its pass depth, and each
// operand's fate, read off the list settleAll gave the recorded
// propagation: the first operand holding a term that list kept takes
// the term's slot, every other operand none (a duplicate, or a
// disjunction S13 absorbed). A root's raw conjuncts are lined up with
// the reference's by pointer, in order: a linear scan that, where the
// two differ, looks the root's conjunct up in an index of the
// reference's raw conjuncts and resyncs there when the next conjuncts
// agree too (the reference's conjuncts skipped are gone). A conjunct
// that does not line up is normalized, whether the reference does not
// hold it (a fresh conjunct) or holds it only out of line (a cache
// hit). Only the terms such a local operand holds, or a gone raw
// conjunct held, can change fate, and S13 fates change only for the
// reference's disjunctions over a term whose membership changed; these
// are settled by the rules of settleAll, every other operand keeps its
// recorded fate, and an operand that keeps a settled slot follows it
// in the rounds.
//
// A slot of the settled list follows the reference until it leaves it;
// a new slot never follows. A following slot's substitution, normal
// form, S4 outcome, S13 fate and binding are the reference's, so the
// replay only emits their effect on the root's entry: its rounds, and
// the pass depth of each followed target's normal form. A replay never
// runs in a counting run (CountFires), so it counts no rule fires. A
// slot leaves when
//
//   - it would receive a binding that differs from the reference's in
//     that round: missing, of another value, or from another binder
//     slot (a binder never substitutes into itself);
//   - its reference event depended on a slot that does not follow: the
//     partner of a duplicate, the absorbing operand or absorbed
//     disjunction of an S13 drop;
//   - a slot that does not follow holds, at the point of the round the
//     event happens, a term the event looks up: the term of an added
//     conjunct, the complement of one, or an operand of a disjunction.
//
// A slot that left is recomputed from then on by the rules of settle,
// against the reference's state at the same point of the round
// overlaid with the recomputed slots. Leaving early is always sound, so
// the rules may be conservative; they must never let a slot follow
// whose step differs. The root falls back to the full path (rewriteNode
// and propagate), after its frame is restored to its state before the
// replay, when a normalized conjunct's normal form is not its own (the
// full path would rebuild the root twice), when no settled slot
// follows, when a recomputed conjunct normalizes to false or to a
// conjunction in a round (it needs resettle), or when the reference is
// unusable.

// Reference is one root conjunction's recorded first step and S14
// propagation, built by Simplifier.Record and replayed by simplifiers
// with Ref set. It is immutable once recorded and safe for concurrent
// replays. A Reference whose recording resettled, collapsed or never
// reached a root conjunction is unusable: every replay against it
// falls back.
type Reference struct {
	usable    bool
	cache     *Cache // the normal-form cache its entries live in
	maxPasses int

	// The raw step: the root's raw conjuncts (its node's argument
	// slice), each one's pass depth and its operands
	// ops[rawOps[j]:rawOps[j+1]], with their settled slots; and indexes
	// of the raw slots by conjunct (rawAt), of the operands by term
	// (opAt), of the operands !y by y (opNot), and of the
	// first-occurrence disjunctions by operand (opOrs).
	raw                       []logic.Term
	rawPasses                 []uint32
	rawOps                    []int32
	ops                       []refOp
	rawAt, opAt, opNot, opOrs termIndex

	args  []logic.Term       // settled operand list, by slot
	vars  map[string][]int32 // slots by variable name (andState.vars)
	binds map[string][]int32 // binding slots by name, in slot order

	rounds []refRound // the rounds that substituted something
	// bound maps every name the propagation bound to the round whose
	// fresh list bound it, the value and the binder; first counts the
	// names the first round bound.
	bound map[string]refBinding
	first int

	// holds lists every occupancy of a slot by a term, grouped by slot
	// in time order (slot b's are holds[bySlot[b]:bySlot[b+1]], the
	// first from tick 0); byTerm, byNot and byOr index them by term, by
	// y for a term !y, and by every operand of a disjunction.
	holds               []hold
	bySlot              []int32
	byTerm, byNot, byOr termIndex
	width               int32 // clock ticks per round

	// states recycles replay scratch between the roots replaying the
	// reference, whose operand lists are about as long as its own.
	states sync.Pool
}

// refOp is one operand of the recorded raw step: a conjunct of a raw
// conjunct's flattened normal form, its raw slot, and its settled slot
// (-1 when S4 dropped it as a duplicate or S13 absorbed it).
type refOp struct {
	t         logic.Term
	raw, slot int32
}

// refBinding is the binding of a name: the round whose fresh list
// holds it, its value and its binder slot.
type refBinding struct {
	round int32
	val   logic.Term
	slot  int32
}

// refRound is one recorded round.
type refRound struct {
	targets []refTarget // the conjuncts it rewrote, in slot order
	drops   []refDrop   // its S13 drops
	binders []binding   // surviving added conjuncts that bind, in slot order
}

// refTarget is one rewritten conjunct of a round and its S4 outcome.
type refTarget struct {
	slot     int32
	kind     uint8
	absorbed bool  // an added disjunction S13 dropped
	partner  int32 // the other slot of a duplicate
	out      logic.Term
	passes   uint32 // out's pass depth, 0 for a leaf
}

// S4 outcomes of a target.
const (
	outTrue        uint8 = iota // became true: dropped
	outDupKept                  // duplicate of an earlier slot: dropped
	outDupReplaced              // duplicate of a later slot, which it replaced
	outAdded                    // new to the list
)

// refDrop is an S13 drop: the victim disjunction and the slot whose
// term absorbed it.
type refDrop struct{ victim, cause int32 }

// hold is a slot's occupancy by a term over the ticks [from, to).
// added marks an occupancy that began as an added S4 outcome.
type hold struct {
	t        logic.Term
	slot     int32
	from, to int32
	added    bool
}

// The clock orders one propagation's events. Round k spans the ticks
// [k*w, (k+1)*w), w = 2m+8 for m slots: tick k*w+1 drops the round's
// targets, tick k*w+2+2b is the S4 step of slot b, the odd tick before
// it is where a slot placed just before b looks the state up, tick
// k*w+2m+3 follows S4 (S6 and S13 look up there) and S13 drops take
// effect at tick k*w+2m+4. The raw step happens before tick 0.
const never = math.MaxInt32

func (r *Reference) start(k int) int32             { return int32(k) * r.width }
func (r *Reference) dropTick(k int) int32          { return r.start(k) + 1 }
func (r *Reference) stepTick(k int, b int32) int32 { return r.start(k) + 2 + 2*b }
func (r *Reference) afterS4(k int) int32           { return r.start(k) + r.width - 5 }
func (r *Reference) absorbTick(k int) int32        { return r.start(k) + r.width - 4 }

// lookTick is where a slot whose S4 step follows reference slot pos
// (-1: no slot) looks the state up.
func (r *Reference) lookTick(k int, pos int32) int32 { return r.start(k) + 3 + 2*pos }

// at returns the hold of slot b live at tick, or nil.
func (r *Reference) at(b, tick int32) *hold {
	for i := r.bySlot[b]; i < r.bySlot[b+1]; i++ {
		if h := &r.holds[i]; h.from <= tick && tick < h.to {
			return h
		}
	}
	return nil
}

// firstStep normalizes a raw conjunct of the root as the full path's
// two child passes do: its normal form, the larger pass depth of the
// two, and false when the normal form is not its own (the full path
// would rebuild the root again).
func (s *Simplifier) firstStep(c logic.Term) (logic.Term, uint32, bool) {
	nf, d1 := s.normDepth(c)
	again, d2 := s.normDepth(nf)
	return nf, max(d1, d2), again == nf
}

// flatten appends to dst the operands S4 makes of the normal form t, as
// logic.FlatAnd does: none for true, a conjunction's own (recursively),
// else t. It returns false when t holds false, which collapses the
// conjunction.
func flatten(dst []logic.Term, t logic.Term) ([]logic.Term, bool) {
	switch {
	case t == logic.True:
		return dst, true
	case t == logic.False:
		return dst, false
	}
	if a, ok := t.(*logic.Apply); ok && a.Op == logic.OpAnd {
		for _, c := range a.Args {
			var held bool
			if dst, held = flatten(dst, c); !held {
				return dst, false
			}
		}
		return dst, true
	}
	return append(dst, t), true
}

// recordRaw records the raw step of the root a: each raw conjunct's
// first step and the operands settleAll makes of them, and indexes
// them. The recording's begin reads each operand's settled slot off the
// list settleAll gives propagate.
func (s *Simplifier) recordRaw(a *logic.Apply) {
	ref := s.rec
	n := len(a.Args)
	ref.rawPasses = make([]uint32, n)
	ref.rawOps = make([]int32, n+1)
	var ops []logic.Term
	for j, c := range a.Args {
		nf, d, ok := s.firstStep(c)
		if !ok {
			return
		}
		ref.rawPasses[j], ref.rawOps[j] = d, int32(len(ops))
		if ops, ok = flatten(ops, nf); !ok {
			return // the root collapses: nothing to replay
		}
	}
	ref.rawOps[n] = int32(len(ops))
	ref.ops = make([]refOp, len(ops))
	ref.rawAt, ref.opAt = make(termIndex, 0, n), make(termIndex, 0, len(ops))
	for j := range n {
		ref.rawAt.add(a.Args[j], int32(j))
		for k := ref.rawOps[j]; k < ref.rawOps[j+1]; k++ {
			t := ops[k]
			ref.ops[k] = refOp{t: t, raw: int32(j), slot: -1}
			ref.opAt.add(t, k)
			if y, ok := negated(t); ok {
				ref.opNot.add(y, k)
			}
		}
	}
	ref.rawAt.sort()
	ref.opAt.sort()
	ref.opNot.sort()
	for k, op := range ref.ops {
		if or, ok := op.t.(*logic.Apply); ok && or.Op == logic.OpOr && ref.opFirst(op.t) == int32(k) {
			for _, o := range or.Args {
				ref.opOrs.add(o, int32(k))
			}
		}
	}
	ref.opOrs.sort()
	ref.raw = a.Args
}

// recorder builds a Reference while propagate runs the recorded root.
type recorder struct {
	ref  *Reference
	open []int32 // each slot's open hold, -1 when empty
	cur  int     // the next target settle reports an outcome for
}

// begin records the settled operand list once the state indexed it,
// and each raw operand's fate: the first operand holding a settled term
// takes its slot.
func (rc *recorder) begin(st *andState) {
	ref := rc.ref
	m := len(st.args)
	if m > 1<<22 || ref.raw == nil {
		return // the clock would overflow, or the raw step was not recorded; the reference stays unusable
	}
	for p, t := range st.args {
		k := ref.opFirst(t)
		if k < 0 {
			return // no raw operand holds t: the recorded raw step is not this list's
		}
		ref.ops[k].slot = int32(p)
	}
	ref.args = slices.Clone(st.args)
	ref.binds = map[string][]int32{}
	ref.bound = map[string]refBinding{}
	ref.vars = st.vars // reset is the only writer, and a resettle fails the recording
	ref.width = int32(2*m + 8)
	rc.open = make([]int32, m)
	for i, c := range ref.args {
		b := int32(i)
		if name, _, ok := unitBinding(c); ok {
			ref.binds[name] = append(ref.binds[name], b)
		}
		rc.open[b] = rc.openHold(b, c, 0, false)
	}
	ref.usable = true
}

func (rc *recorder) openHold(b int32, t logic.Term, from int32, added bool) int32 {
	rc.ref.holds = append(rc.ref.holds, hold{t: t, slot: b, from: from, to: never, added: added})
	return int32(len(rc.ref.holds) - 1)
}

func (rc *recorder) closeHold(b, tick int32) {
	if h := rc.open[b]; h >= 0 {
		rc.ref.holds[h].to = tick
		rc.open[b] = -1
	}
}

// bind records the round whose fresh list bound each name.
func (rc *recorder) bind(fresh []binding) {
	k := int32(len(rc.ref.rounds))
	for _, b := range fresh {
		rc.ref.bound[b.name] = refBinding{k, b.val, b.slot}
		if k == 0 {
			rc.ref.first++
		}
	}
}

// round records a round's fresh bindings and substituted targets.
func (rc *recorder) round(fresh []binding, targets []target) {
	ref := rc.ref
	rc.bind(fresh)
	r := refRound{targets: make([]refTarget, len(targets))}
	for i, tg := range targets {
		r.targets[i] = refTarget{slot: tg.slot, partner: -1}
	}
	ref.rounds = append(ref.rounds, r)
	rc.cur = 0
}

// normalized records target i's normal form and its pass depth.
func (rc *recorder) normalized(i int, t logic.Term, passes uint32) {
	tg := &rc.ref.rounds[len(rc.ref.rounds)-1].targets[i]
	tg.out, tg.passes = t, passes
}

// dropTargets closes the holds of the round's targets (settle drops
// them all before S4).
func (rc *recorder) dropTargets(targets []target) {
	k := len(rc.ref.rounds) - 1
	for _, tg := range targets {
		rc.closeHold(tg.slot, rc.ref.dropTick(k))
	}
}

// outcome records the S4 outcome of the next target.
func (rc *recorder) outcome(kind uint8, partner int32) {
	k := len(rc.ref.rounds) - 1
	tg := &rc.ref.rounds[k].targets[rc.cur]
	rc.cur++
	tg.kind, tg.partner = kind, partner
	tick := rc.ref.stepTick(k, tg.slot)
	if kind == outDupReplaced {
		rc.closeHold(partner, tick)
	}
	if kind == outDupReplaced || kind == outAdded {
		rc.open[tg.slot] = rc.openHold(tg.slot, tg.out, tick, kind == outAdded)
	}
}

// absorbed records an S13 drop.
func (rc *recorder) absorbed(victim, cause int32) {
	k := len(rc.ref.rounds) - 1
	r := &rc.ref.rounds[k]
	r.drops = append(r.drops, refDrop{victim, cause})
	if i, ok := slices.BinarySearchFunc(r.targets, victim, func(t refTarget, s int32) int { return int(t.slot - s) }); ok {
		r.targets[i].absorbed = true
	}
	rc.closeHold(victim, rc.ref.absorbTick(k))
}

// binder records a surviving added conjunct of the round, if it binds.
func (rc *recorder) binder(p int32, c logic.Term) {
	if name, val, ok := unitBinding(c); ok {
		r := &rc.ref.rounds[len(rc.ref.rounds)-1]
		r.binders = append(r.binders, binding{name, val, p})
	}
}

// fail marks the recording unusable (a resettle or a collapse).
func (rc *recorder) fail() { rc.ref.usable = false }

// finish records the bindings the propagation stopped with and indexes
// the holds.
func (rc *recorder) finish(fresh []binding) {
	ref := rc.ref
	rc.bind(fresh)
	// Group the holds by slot (a stable counting sort keeps each slot's
	// in time order), then index them.
	m := len(ref.args)
	ref.bySlot = make([]int32, m+1)
	for _, h := range ref.holds {
		ref.bySlot[h.slot+1]++
	}
	for b := 0; b < m; b++ {
		ref.bySlot[b+1] += ref.bySlot[b]
	}
	grouped := make([]hold, len(ref.holds))
	next := slices.Clone(ref.bySlot[:m])
	for _, h := range ref.holds {
		grouped[next[h.slot]] = h
		next[h.slot]++
	}
	ref.holds = grouped
	ref.byTerm = make(termIndex, 0, len(grouped))
	for i, h := range grouped {
		ref.byTerm.add(h.t, int32(i))
		if y, ok := negated(h.t); ok {
			ref.byNot.add(y, int32(i))
		}
		if or, ok := h.t.(*logic.Apply); ok && or.Op == logic.OpOr {
			for _, o := range or.Args {
				ref.byOr.add(o, int32(i))
			}
		}
	}
	ref.byTerm.sort()
	ref.byNot.sort()
	ref.byOr.sort()
}

// Record normalizes t as Simplify does and records the first step and
// the propagation of its root conjunction — t itself, or t rebuilt
// from its normalized conjuncts — as a Reference for replays over the
// same cache. The root conjunction is recomputed even when the cache
// already holds it. The result is never nil; it is unusable when t has
// no root conjunction with a propagation to record, or that
// propagation resettled or collapsed.
func (s *Simplifier) Record(t logic.Term) (logic.Term, *Reference) {
	s.rec = &Reference{maxPasses: s.MaxPasses}
	defer func() { s.rec = nil }()
	out := s.Simplify(t)
	ref := s.rec
	if !ref.usable {
		return out, &Reference{} // keeps nothing a replay would read
	}
	ref.cache = s.cache
	return out, ref
}

// replayState is one root conjunction's replay against a Reference.
// Slots are numbered as in the root's settled operand list.
type replayState struct {
	s    *Simplifier
	ref  *Reference
	args []logic.Term // the settled operand list the raw step built
	bOf  []int32      // each slot's reference slot, -1 for a new slot
	rOf  []int32      // each reference slot's slot, -1 when it has none
	pos  []int32      // the reference slot whose S4 step each slot's follows

	// The raw step's scratch: each raw conjunct's reference raw slot
	// (-1: it does not line up and is normalized), each reference raw
	// slot's raw conjunct (-1: gone), the gone ones, the operands of
	// the normalized conjuncts (local operands) and each term's first,
	// the overridden fates of reference operands (touched lists them),
	// and the output list.
	rawRef, rawMine, gone []int32
	lops                  []localOp
	lfirst                map[logic.Term]int32
	over                  []uint8
	touched               []int32
	flat, out             []logic.Term
	moved                 []string

	// comp marks the slots that do not follow the reference; live holds
	// their terms (nil once dropped) and indexes them as andState does,
	// and added holds the round+1 in which S4 last added them.
	comp  []bool
	live  slotIndex
	added []int32
	comps []int32

	// A round's bindings are the reference's except for the names in
	// diff, which holds this run's binding of each (slot -1: none).
	// rebound holds the round in which this run bound a name, for the
	// names that differ from the reference's (never: not yet).
	diff, next map[string]binding
	rebound    map[string]int32

	// Per-round scratch.
	slotSub map[string]logic.Term // the bindings one slot receives
	targets []target              // the recomputed slots' targets, in slot order
	follow  []int32               // indexes of the following added targets
	cadded  []int32               // the recomputed added slots, in slot order
	orCands []int32
}

// localOp is an operand of a normalized raw conjunct: its term, its raw
// conjunct, and whether it takes a settled slot.
type localOp struct {
	t    logic.Term
	raw  int32
	emit bool
}

// Overridden fates of a reference operand.
const (
	fateDrop uint8 = 1 + iota // takes no settled slot
	fateNew                   // takes a new settled slot
)

// rawStepHook, when set, receives the number of raw conjuncts each
// replayed root normalized (export_test.go).
var rawStepHook func(normalized int)

// replayRoot answers the root conjunction a from s.Ref: the raw step
// builds its settled operand list, lined up with the reference's, and
// the rounds replay the reference's. It returns false when the root
// must fall back to the full path; the root's frame is then restored.
func (s *Simplifier) replayRoot(a *logic.Apply) (logic.Term, bool) {
	ref := s.Ref
	if !ref.usable || ref.cache != s.cache || ref.maxPasses != s.MaxPasses {
		return nil, false
	}
	saved := s.stack[len(s.stack)-1]
	rs, _ := ref.states.Get().(*replayState)
	if rs == nil {
		rs = &replayState{
			lfirst: map[logic.Term]int32{},
			live:   newSlotIndex(0),
			diff:   map[string]binding{}, next: map[string]binding{}, rebound: map[string]int32{},
			slotSub: map[string]logic.Term{},
		}
	}
	rs.s, rs.ref = s, ref
	defer rs.release()
	out, ok := rs.root(a)
	if !ok {
		s.stack[len(s.stack)-1] = saved
	}
	return out, ok
}

// root replays the root conjunction a.
func (rs *replayState) root(a *logic.Apply) (logic.Term, bool) {
	collapsed, ok := rs.rawStep(a.Args)
	if !ok {
		return nil, false
	}
	if collapsed {
		return logic.False, true
	}
	if !slices.ContainsFunc(rs.bOf, func(b int32) bool { return b >= 0 }) {
		return nil, false // nothing follows
	}
	rs.start()
	if !rs.binds() {
		return rs.result(a, rs.args, false), true // nothing binds
	}
	s, ref := rs.s, rs.ref
	rounds := 0
	for ; rounds < s.MaxPasses; rounds++ {
		res := rs.round(rounds)
		if res == roundFallback {
			return nil, false
		}
		if res == roundCollapse {
			return logic.False, true
		}
		if res == roundNone {
			break
		}
	}
	if rounds == 0 {
		return rs.result(a, rs.args, false), true
	}
	tick := ref.start(rounds)
	out := rs.out[:0]
	for i := range rs.args {
		if rs.comp[i] {
			if c := rs.live.args[i]; c != nil {
				out = append(out, c)
			}
		} else if h := ref.at(rs.bOf[i], tick); h != nil {
			out = append(out, h.t)
		}
	}
	rs.out = out
	return rs.result(a, out, true), true
}

// result is the root's normal form: a itself when neither the raw step
// nor the rounds changed its operand list, else their conjunction.
func (rs *replayState) result(a *logic.Apply, list []logic.Term, propagated bool) logic.Term {
	if !propagated && slices.Equal(rs.args, a.Args) {
		return a
	}
	return logic.And(list...)
}

// rawStep builds the settled operand list of the root's raw conjuncts
// args and lines it up with the reference's (bOf, rOf), as the full
// path's first step and settleAll would settle it. It returns false
// when a normalized conjunct's first step differs from the full path's,
// and collapsed when the list collapses to false.
func (rs *replayState) rawStep(args []logic.Term) (collapsed, ok bool) {
	s, ref := rs.s, rs.ref
	rs.alignRaw(args)
	normalized := 0
	for i, j := range rs.rawRef {
		if j >= 0 {
			s.fold(ref.rawPasses[j])
			continue
		}
		nf, _, ok := s.firstStep(args[i])
		if !ok {
			return false, false
		}
		normalized++
		var held bool
		if rs.flat, held = flatten(rs.flat[:0], nf); !held {
			collapsed = true
		}
		for _, t := range rs.flat {
			rs.local(t, i)
		}
	}
	if rawStepHook != nil {
		rawStepHook(normalized)
	}
	if collapsed {
		return true, true
	}

	// S4, S6 and S13 can decide otherwise than in the reference only for
	// a term a local operand holds or a gone raw conjunct held.
	for l, op := range rs.lops {
		if rs.lfirst[op.t] != int32(l) {
			continue
		}
		if rs.complements(op.t) {
			return true, true
		}
		rs.decide(op.t)
	}
	for _, j := range rs.gone {
		for k := ref.rawOps[j]; k < ref.rawOps[j+1]; k++ {
			if _, local := rs.lfirst[ref.ops[k].t]; !local {
				rs.decide(ref.ops[k].t)
			}
		}
	}

	// The settled list: every operand in raw order that takes a slot.
	rs.rOf = resize(rs.rOf, len(ref.args))
	for b := range rs.rOf {
		rs.rOf[b] = -1
	}
	rs.args, rs.bOf = rs.args[:0], rs.bOf[:0]
	emit := func(t logic.Term, b int32) {
		if b >= 0 {
			rs.rOf[b] = int32(len(rs.args))
		}
		rs.args, rs.bOf = append(rs.args, t), append(rs.bOf, b)
	}
	l := 0
	for i, j := range rs.rawRef {
		if j < 0 {
			for ; l < len(rs.lops) && rs.lops[l].raw == int32(i); l++ {
				if rs.lops[l].emit {
					emit(rs.lops[l].t, -1)
				}
			}
			continue
		}
		for k := ref.rawOps[j]; k < ref.rawOps[j+1]; k++ {
			switch op := &ref.ops[k]; rs.over[k] {
			case fateNew:
				emit(op.t, -1)
			case 0:
				if op.slot >= 0 {
					emit(op.t, op.slot)
				}
			}
		}
	}
	return false, true
}

// alignRaw lines the raw conjuncts args up with the reference's by
// pointer, in order. Where they differ, it looks the conjunct up in
// the reference's raw index and resyncs at its next occurrence (see
// resyncs); the reference's conjuncts skipped are gone. A conjunct the
// index lacks, or holds only elsewhere, does not line up.
func (rs *replayState) alignRaw(args []logic.Term) {
	ref := rs.ref
	n, m := len(args), len(ref.raw)
	rs.rawRef, rs.rawMine = resize(rs.rawRef, n), resize(rs.rawMine, m)
	for j := range rs.rawMine {
		rs.rawMine[j] = -1
	}
	if rs.over == nil {
		rs.over = make([]uint8, len(ref.ops)) // release zeroes what a replay set
	}
	j := 0
	for i, c := range args {
		k := int32(j)
		if j >= m || c != ref.raw[j] {
			if k = ref.rawFrom(c, k); k < 0 || !rs.resyncs(args, i, k) {
				rs.rawRef[i] = -1
				continue
			}
			for ; j < int(k); j++ {
				rs.gone = append(rs.gone, int32(j))
			}
		}
		rs.rawRef[i], rs.rawMine[k] = k, int32(i)
		j = int(k) + 1
	}
	for ; j < m; j++ {
		rs.gone = append(rs.gone, int32(j))
	}
}

// resyncs reports whether raw conjunct i, which the reference holds at
// raw slot k past the scan's, lines up there: unless the conjunct after
// it is one the reference holds elsewhere than after k, as when a run
// moved.
func (rs *replayState) resyncs(args []logic.Term, i int, k int32) bool {
	ref := rs.ref
	if i+1 == len(args) || int(k)+1 == len(ref.raw) || args[i+1] == ref.raw[k+1] {
		return true
	}
	return ref.rawFrom(args[i+1], 0) < 0
}

// rawFrom returns the first raw slot from j on that holds c, -1 if none.
func (r *Reference) rawFrom(c logic.Term, j int32) int32 {
	for _, e := range r.rawAt.places(c) {
		if e.place >= j && r.raw[e.place] == c {
			return e.place
		}
	}
	return -1
}

// opFirst returns the first operand holding t, -1 if none.
func (r *Reference) opFirst(t logic.Term) int32 {
	for _, e := range r.opAt.places(t) {
		if r.ops[e.place].t == t {
			return e.place
		}
	}
	return -1
}

// local adds an operand of the normalized raw conjunct i.
func (rs *replayState) local(t logic.Term, i int) {
	if _, ok := rs.lfirst[t]; !ok {
		rs.lfirst[t] = int32(len(rs.lops))
	}
	rs.lops = append(rs.lops, localOp{t: t, raw: int32(i)})
}

// firstLined returns the first reference operand holding t whose raw
// conjunct is lined up, -1 if none.
func (rs *replayState) firstLined(t logic.Term) int32 {
	for _, e := range rs.ref.opAt.places(t) {
		if op := &rs.ref.ops[e.place]; op.t == t && rs.rawMine[op.raw] >= 0 {
			return e.place
		}
	}
	return -1
}

// held reports whether some raw conjunct of the root holds operand t.
func (rs *replayState) held(t logic.Term) bool {
	if _, ok := rs.lfirst[t]; ok {
		return true
	}
	return rs.firstLined(t) >= 0
}

// absorbed reports whether S13 drops t: t is a disjunction and the root
// holds one of its operands.
func (rs *replayState) absorbed(t logic.Term) bool {
	or, ok := t.(*logic.Apply)
	if !ok || or.Op != logic.OpOr {
		return false
	}
	return slices.ContainsFunc(or.Args, rs.held)
}

// complements applies S6 to the local term t: the root collapses when
// it holds t's complement (the reference held no complement pair, so
// every new pair has a local side).
func (rs *replayState) complements(t logic.Term) bool {
	if y, ok := negated(t); ok && rs.held(y) {
		return true
	}
	for _, e := range rs.ref.opNot.places(t) {
		if op := &rs.ref.ops[e.place]; rs.rawMine[op.raw] >= 0 {
			if y, _ := negated(op.t); y == t {
				return true
			}
		}
	}
	return false
}

// decide applies S4 and S13 to term t, which a local operand holds or a
// gone raw conjunct held: S4 keeps t's first operand in the root's
// order, S13 drops it when it absorbs. When the root holds t and the
// reference did not, or the other way round, S13 is decided again for
// the reference's disjunctions over t.
func (rs *replayState) decide(t logic.Term) {
	ref := rs.ref
	b := rs.firstLined(t)
	l, local := rs.lfirst[t]
	first := ref.opFirst(t)
	switch {
	case local && (b < 0 || rs.lops[l].raw < rs.rawMine[ref.ops[b].raw]):
		if b >= 0 && b == first {
			rs.override(b, fateDrop)
		}
		rs.lops[l].emit = !rs.absorbed(t)
	case b >= 0:
		rs.refit(b)
	}
	if inRef := first >= 0; inRef != (local || b >= 0) {
		for _, e := range ref.opOrs.places(t) {
			d := &ref.ops[e.place]
			if rs.rawMine[d.raw] < 0 || !slices.Contains(d.t.(*logic.Apply).Args, t) {
				continue
			}
			if _, local := rs.lfirst[d.t]; !local {
				rs.refit(e.place)
			}
		}
	}
}

// refit decides the fate of reference operand b, lined up and the
// first in the root's order to hold its term: it takes a slot unless
// S13 absorbs it, the recorded slot when it had one.
func (rs *replayState) refit(b int32) {
	op := &rs.ref.ops[b]
	switch kept := !rs.absorbed(op.t); {
	case kept && op.slot < 0:
		rs.override(b, fateNew)
	case !kept && op.slot >= 0:
		rs.override(b, fateDrop)
	}
}

// override sets the fate of reference operand k.
func (rs *replayState) override(k int32, fate uint8) {
	if rs.over[k] == 0 {
		rs.touched = append(rs.touched, k)
	}
	rs.over[k] = fate
}

// start sizes the slot state for the settled list and computes the
// first round's bindings.
func (rs *replayState) start() {
	ref, args := rs.ref, rs.args
	n := len(args)
	rs.pos = resize(rs.pos, n)
	rs.comp, rs.added = resize(rs.comp, n), resize(rs.added, n)
	rs.live.reset(n)
	// The binding names of the slots on either side only are the names
	// whose first binder may move.
	moved := rs.moved[:0]
	last := int32(-1)
	for i, c := range args {
		r := int32(i)
		if b := rs.bOf[r]; b >= 0 {
			rs.pos[r] = b - 1
			last = b
			continue
		}
		rs.pos[r] = last
		rs.comp[r] = true
		rs.comps = append(rs.comps, r)
		rs.live.insert(r, c)
		if name, _, ok := unitBinding(c); ok {
			moved = append(moved, name)
		}
	}
	for b, r := range rs.rOf {
		if r < 0 {
			if name, _, ok := unitBinding(ref.args[b]); ok {
				moved = append(moved, name)
			}
		}
	}
	rs.moved = moved

	// First bindings: the reference's, except for the moved names,
	// whose first binder is the first of the aligned reference binders
	// and the new slots that bind them.
	for _, name := range moved {
		if _, ok := rs.diff[name]; ok {
			continue
		}
		first := int32(-1)
		for _, b := range ref.binds[name] {
			if r := rs.rOf[b]; r >= 0 {
				first = r
				break
			}
		}
		for _, r := range rs.comps {
			if first >= 0 && r > first {
				break
			}
			if nm, _, ok := unitBinding(args[r]); ok && nm == name {
				first = r
				break
			}
		}
		b := binding{name, nil, -1}
		if first >= 0 {
			_, b.val, _ = unitBinding(args[first])
			b.slot = first
		}
		rs.diff[name] = b
	}
	rs.rebind(0)
}

// binds reports whether the first round binds anything: a reference
// binding of a name outside diff, or one in it.
func (rs *replayState) binds() bool {
	moved := 0
	for name, b := range rs.diff {
		if b.slot >= 0 {
			return true
		}
		if fb, ok := rs.ref.bound[name]; ok && fb.round == 0 {
			moved++
		}
	}
	return rs.ref.first > moved
}

// release returns the state to its reference's pool, dropping what it
// refers to.
func (rs *replayState) release() {
	for _, k := range rs.touched {
		rs.over[k] = 0
	}
	rs.touched, rs.gone = rs.touched[:0], rs.gone[:0]
	clear(rs.lops)
	rs.lops = rs.lops[:0]
	clear(rs.lfirst)
	clear(rs.flat)
	clear(rs.args)
	clear(rs.out)
	rs.live.reset(0)
	clear(rs.diff)
	clear(rs.next)
	clear(rs.rebound)
	clear(rs.slotSub)
	rs.comps, rs.targets = rs.comps[:0], rs.targets[:0]
	rs.follow, rs.cadded, rs.orCands = rs.follow[:0], rs.cadded[:0], rs.orCands[:0]
	clear(rs.moved)
	rs.s, rs.args = nil, rs.args[:0]
	ref := rs.ref
	rs.ref = nil
	ref.states.Put(rs)
}

// binding returns this run's round-k binding of name.
func (rs *replayState) binding(name string, k int) (binding, bool) {
	if b, ok := rs.diff[name]; ok {
		return b, b.slot >= 0
	}
	if fb, ok := rs.ref.bound[name]; ok && fb.round == int32(k) {
		return binding{name, fb.val, rs.rOf[fb.slot]}, true
	}
	return binding{}, false
}

// rebind records, for the names in diff, the round in which this run
// bound them where it differs from the reference's.
func (rs *replayState) rebind(k int) {
	for name, b := range rs.diff {
		fb, ok := rs.ref.bound[name]
		refFresh := ok && fb.round == int32(k)
		if b.slot >= 0 && !refFresh {
			rs.rebound[name] = int32(k)
		} else if b.slot < 0 && refFresh {
			if _, ok := rs.rebound[name]; !ok {
				rs.rebound[name] = never
			}
		}
	}
}

// boundBefore reports whether this run bound name before round k.
func (rs *replayState) boundBefore(name string, k int) bool {
	if at, ok := rs.rebound[name]; ok {
		return at < int32(k)
	}
	fb, ok := rs.ref.bound[name]
	return ok && fb.round < int32(k)
}

// leave makes slot r stop following, taking the reference's term at
// tick; k is the round, for the added mark of an occupancy that began
// as an added S4 outcome in it.
func (rs *replayState) leave(r int32, k int, tick int32) {
	rs.comp[r] = true
	rs.comps = append(rs.comps, r)
	if h := rs.ref.at(rs.bOf[r], tick); h != nil {
		rs.live.insert(r, h.t)
		if h.added && h.from >= rs.ref.start(k) {
			rs.added[r] = int32(k) + 1
		}
	}
}

// following reports whether reference slot b has a slot that follows.
func (rs *replayState) following(b int32) (int32, bool) {
	r := rs.rOf[b]
	return r, r >= 0 && !rs.comp[r]
}

// holder returns the slot holding t at tick, -1 if none, and whether
// S4 added it in round k.
func (rs *replayState) holder(t logic.Term, k int, tick int32) (int32, bool) {
	if r, ok := rs.live.index[t]; ok {
		return r, rs.added[r] == int32(k)+1
	}
	return rs.refHolder(t, false, k, tick)
}

// refHolder returns the following slot among the reference's holds of
// t (of !t when not) live at tick, -1 if none, and whether S4 added it
// in round k.
func (rs *replayState) refHolder(t logic.Term, not bool, k int, tick int32) (int32, bool) {
	x := rs.ref.byTerm
	if not {
		x = rs.ref.byNot
	}
	for _, e := range x.places(t) {
		h := &rs.ref.holds[e.place]
		u := h.t
		if not {
			u, _ = negated(u)
		}
		if u == t && h.from <= tick && tick < h.to {
			if r, ok := rs.following(h.slot); ok {
				return r, h.added && h.from >= rs.ref.start(k)
			}
		}
	}
	return -1, false
}

// Round results.
const (
	roundDone = iota
	roundNone
	roundCollapse
	roundFallback
)

// round replays round k.
func (rs *replayState) round(k int) int {
	s, ref := rs.s, rs.ref
	var rr *refRound
	var tb []refTarget
	if k < len(ref.rounds) {
		rr = &ref.rounds[k]
		tb = rr.targets
	}
	rs.diverge(k)
	rs.substitute(k)
	work := len(rs.targets) > 0
	for i := 0; i < len(tb) && !work; i++ {
		_, work = rs.following(tb[i].slot)
	}
	if !work {
		return roundNone
	}
	s.stack[len(s.stack)-1].rounds++
	if !rs.normalize(tb) {
		return roundFallback
	}
	rs.settle(k, tb)
	if rs.collapses(k, tb) {
		return roundCollapse
	}
	rs.absorb(k, rr)
	rs.rebindNext(k, rr)
	return roundDone
}

// diverge makes every following slot that would receive a binding
// other than the reference's in round k leave before substitution.
func (rs *replayState) diverge(k int) {
	for name, b := range rs.diff {
		fb, ok := rs.ref.bound[name]
		if ok && fb.round == int32(k) {
			if b.slot >= 0 && b.val == fb.val && b.slot == rs.rOf[fb.slot] {
				continue
			}
		} else if b.slot < 0 {
			continue
		}
		rs.leaveVars(name, k)
	}
}

// substitute substitutes round k's bindings into the recomputed slots:
// each receives the bindings of the names it holds, but not the one it
// binds itself. The slots that change are the round's recomputed
// targets, in slot order.
func (rs *replayState) substitute(k int) {
	slices.Sort(rs.comps)
	rs.targets = rs.targets[:0]
	for _, p := range rs.comps {
		c := rs.live.args[p]
		if c == nil {
			continue
		}
		clear(rs.slotSub)
		rs.collect(c, p, k)
		if u := logic.Substitute(c, rs.slotSub); u != c {
			rs.targets = append(rs.targets, target{p, u})
		}
	}
}

// normalize normalizes the round's targets in slot order: a following
// target's normal form and pass depth are the reference's, a
// recomputed one is normalized. It returns false when a recomputed one
// needs resettle.
func (rs *replayState) normalize(tb []refTarget) bool {
	s := rs.s
	j := 0
	upTo := func(limit int32) bool {
		for ; j < len(rs.targets) && rs.targets[j].slot < limit; j++ {
			t := s.norm(rs.targets[j].t)
			if t == logic.False || isOp(t, logic.OpAnd) {
				return false
			}
			rs.targets[j].t = t
		}
		return true
	}
	for i := range tb {
		r, ok := rs.following(tb[i].slot)
		if !ok {
			continue
		}
		if !upTo(r) {
			return false
		}
		s.fold(tb[i].passes)
	}
	return upTo(math.MaxInt32)
}

// settle applies S4 to the round's targets in slot order. A following
// target keeps the reference's outcome while its partner follows and
// no recomputed slot holds its term; a recomputed one runs s4. A
// reference duplicate whose replacer does not follow keeps its
// partner, which leaves.
func (rs *replayState) settle(k int, tb []refTarget) {
	for _, tg := range rs.targets {
		rs.live.drop(tg.slot)
	}
	for i := range tb {
		if tb[i].kind != outDupReplaced {
			continue
		}
		if _, ok := rs.following(tb[i].slot); ok {
			continue
		}
		if q, ok := rs.following(tb[i].partner); ok {
			rs.leave(q, k, rs.ref.dropTick(k))
		}
	}
	j := 0
	rs.follow, rs.cadded = rs.follow[:0], rs.cadded[:0]
	upTo := func(limit int32) {
		for ; j < len(rs.targets) && rs.targets[j].slot < limit; j++ {
			rs.s4(rs.targets[j].slot, rs.targets[j].t, k)
		}
	}
	for i := range tb {
		tg := &tb[i]
		r, ok := rs.following(tg.slot)
		if !ok {
			continue
		}
		upTo(r)
		valid := true
		switch tg.kind {
		case outAdded:
			_, dup := rs.live.index[tg.out]
			valid = !dup
		case outDupKept, outDupReplaced:
			_, valid = rs.following(tg.partner)
		}
		switch {
		case !valid:
			rs.comp[r] = true
			rs.comps = append(rs.comps, r)
			rs.s4(r, tg.out, k)
		case tg.kind == outAdded:
			rs.follow = append(rs.follow, int32(i))
		}
	}
	upTo(math.MaxInt32)
}

// collapses applies S6: a complement pair with a recomputed side
// collapses the conjunction (the reference had none).
func (rs *replayState) collapses(k int, tb []refTarget) bool {
	for _, i := range rs.follow {
		x := tb[i].out
		if y, ok := negated(x); ok {
			if _, in := rs.live.index[y]; in {
				return true
			}
		}
		if _, in := rs.live.nots[x]; in {
			return true
		}
	}
	tick := rs.ref.afterS4(k)
	for _, r := range rs.cadded {
		x := rs.live.args[r]
		if y, ok := negated(x); ok {
			if h, _ := rs.holder(y, k, tick); h >= 0 {
				return true
			}
		}
		h, ok := rs.live.nots[x]
		if !ok {
			h, _ = rs.refHolder(x, true, k, tick)
		}
		if h >= 0 {
			return true
		}
	}
	return false
}

// absorb applies S13. A disjunction is dropped iff some operand is
// held after S4 and the disjunction or the holder was added this round.
// The reference's drops stand where both sides follow; every other
// disjunction that may meet a recomputed side is decided here.
func (rs *replayState) absorb(k int, rr *refRound) {
	ref := rs.ref
	tick := ref.afterS4(k)
	rs.orCands = rs.orCands[:0]
	if rr != nil {
		for _, d := range rr.drops {
			v, ok := rs.following(d.victim)
			if !ok {
				continue
			}
			if _, ok := rs.following(d.cause); ok {
				continue
			}
			rs.leave(v, k, tick)
			rs.orCands = append(rs.orCands, v)
		}
	}
	for _, i := range rs.follow {
		tg := &rr.targets[i]
		or, isOr := tg.out.(*logic.Apply)
		if !isOr || or.Op != logic.OpOr {
			rs.orCands = append(rs.orCands, rs.live.ors[tg.out]...)
			continue
		}
		r, ok := rs.following(tg.slot)
		if !ok || tg.absorbed {
			continue
		}
		for _, o := range or.Args {
			if _, in := rs.live.index[o]; in {
				rs.leave(r, k, tick)
				rs.orCands = append(rs.orCands, r)
				break
			}
		}
	}
	for _, r := range rs.cadded {
		x := rs.live.args[r]
		if isOp(x, logic.OpOr) {
			rs.orCands = append(rs.orCands, r)
			continue
		}
		rs.orCands = append(rs.orCands, rs.live.ors[x]...)
		for _, e := range ref.byOr.places(x) {
			h := &ref.holds[e.place]
			if h.from <= tick && tick < h.to && slices.Contains(h.t.(*logic.Apply).Args, x) {
				if q, ok := rs.following(h.slot); ok {
					rs.leave(q, k, tick)
					rs.orCands = append(rs.orCands, q)
				}
			}
		}
	}
	for _, q := range rs.orCands {
		x := rs.live.args[q]
		if x == nil || !isOp(x, logic.OpOr) {
			continue
		}
		qAdded := rs.added[q] == int32(k)+1
		for _, o := range x.(*logic.Apply).Args {
			if h, hAdded := rs.holder(o, k, tick); h >= 0 && (qAdded || hAdded) {
				rs.live.drop(q)
				break
			}
		}
	}
}

// rebindNext computes the next round's bindings: the surviving added
// conjuncts' that bind a name this run has not bound, first per name
// in slot order. They are the reference's except for the names a
// recomputed or gone binder binds, or this run bound in another round;
// diff gets this run's binding of each of those.
func (rs *replayState) rebindNext(k int, rr *refRound) {
	clear(rs.next)
	var binders []binding
	if rr != nil {
		binders = rr.binders
	}
	for _, r := range rs.cadded {
		if c := rs.live.args[r]; c != nil {
			if name, _, ok := unitBinding(c); ok {
				rs.next[name] = binding{name, nil, -1}
			}
		}
	}
	for _, b := range binders {
		_, follows := rs.following(b.slot)
		if _, moved := rs.rebound[b.name]; !follows || moved {
			rs.next[b.name] = binding{b.name, nil, -1}
		}
	}
	if len(rs.next) > 0 {
		j := 0
		upTo := func(limit int32) {
			for ; j < len(rs.cadded) && rs.cadded[j] < limit; j++ {
				r := rs.cadded[j]
				if c := rs.live.args[r]; c != nil {
					if name, val, ok := unitBinding(c); ok {
						rs.bind(binding{name, val, r}, k)
					}
				}
			}
		}
		for _, b := range binders {
			r, ok := rs.following(b.slot)
			if !ok {
				continue
			}
			upTo(r)
			if _, touched := rs.next[b.name]; touched {
				rs.bind(binding{b.name, b.val, r}, k)
			}
		}
		upTo(math.MaxInt32)
	}
	rs.diff, rs.next = rs.next, rs.diff
	rs.rebind(k + 1)
}

// bind makes b the next round's binding of its name, one diff tracks,
// unless the name is taken or this run bound it before.
func (rs *replayState) bind(b binding, k int) {
	if e, ok := rs.next[b.name]; !ok || e.slot >= 0 || rs.boundBefore(b.name, k+1) {
		return
	}
	rs.next[b.name] = b
}

// collect adds to slotSub the round-k bindings of the names t holds,
// except those recomputed slot p binds itself.
func (rs *replayState) collect(t logic.Term, p int32, k int) {
	switch n := t.(type) {
	case *logic.Var:
		if b, ok := rs.binding(n.Name, k); ok && b.slot != p {
			rs.slotSub[n.Name] = b.val
		}
	case *logic.Apply:
		for _, a := range n.Args {
			rs.collect(a, p, k)
		}
	}
}

// leaveVars makes every following slot listed under name leave at the
// start of round k.
func (rs *replayState) leaveVars(name string, k int) {
	for _, b := range rs.ref.vars[name] {
		if r, ok := rs.following(b); ok {
			rs.leave(r, k, rs.ref.start(k))
		}
	}
}

// s4 applies S4 to recomputed target r, normalized to t, at its step
// of round k, as settle does.
func (rs *replayState) s4(r int32, t logic.Term, k int) {
	if t == logic.True {
		return
	}
	q, _ := rs.holder(t, k, rs.ref.lookTick(k, rs.pos[r]))
	if q < 0 {
		rs.live.insert(r, t)
		rs.added[r] = int32(k) + 1
		rs.cadded = append(rs.cadded, r)
		return
	}
	if q < r {
		return
	}
	if !rs.comp[q] {
		rs.leave(q, k, rs.ref.lookTick(k, rs.pos[r]))
	}
	rs.live.drop(q)
	rs.live.insert(r, t)
}
