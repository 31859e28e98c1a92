package logic

import "fmt"

// Value is a concrete value of one of the three sorts. Exactly one of
// the payload fields is meaningful, selected by Sort.Kind.
type Value struct {
	S *Sort
	B bool
	I int64
	E string
}

// BoolValue wraps a boolean.
func BoolValue(b bool) Value { return Value{S: Bool, B: b} }

// IntValue wraps an integer.
func IntValue(i int64) Value { return Value{S: Int, I: i} }

// EnumValue wraps an enumeration constant; it panics if val is not a
// member of s.
func EnumValue(s *Sort, val string) Value {
	if _, ok := s.ValueIndex(val); !ok {
		panic(fmt.Sprintf("logic: %q is not a value of sort %v", val, s))
	}
	return Value{S: s, E: val}
}

// String renders the value.
func (v Value) String() string {
	switch {
	case v.S.IsBool():
		if v.B {
			return "true"
		}
		return "false"
	case v.S.IsInt():
		return fmt.Sprintf("%d", v.I)
	default:
		return v.E
	}
}

// Equal reports whether two values are identical (same sort family and
// payload).
func (v Value) Equal(w Value) bool {
	if !SameSort(v.S, w.S) {
		return false
	}
	switch v.S.Kind {
	case KindBool:
		return v.B == w.B
	case KindInt:
		return v.I == w.I
	case KindEnum:
		return v.E == w.E
	}
	return false
}

// Term converts the value back into a literal term.
func (v Value) Term() Term {
	switch v.S.Kind {
	case KindBool:
		return NewBool(v.B)
	case KindInt:
		return NewInt(v.I)
	case KindEnum:
		return NewEnum(v.S, v.E)
	}
	panic("logic: Value with unknown sort kind")
}

// Assignment maps variable names to concrete values. Evaluation treats
// missing variables as an error, surfaced through Eval's error return.
type Assignment map[string]Value

// Eval evaluates t under the assignment. It returns an error if a free
// variable of t is unassigned or assigned a value of the wrong sort.
// The logic is total otherwise: all operators are defined on all values
// of their argument sorts.
func Eval(t Term, a Assignment) (Value, error) {
	switch n := t.(type) {
	case *Var:
		v, ok := a[n.Name]
		if !ok {
			return Value{}, fmt.Errorf("logic: variable %q is unassigned", n.Name)
		}
		if !SameSort(v.S, n.S) {
			return Value{}, fmt.Errorf("logic: variable %q has sort %v but is assigned %v", n.Name, n.S, v.S)
		}
		return v, nil
	case *BoolLit:
		return BoolValue(n.Val), nil
	case *IntLit:
		return IntValue(n.Val), nil
	case *EnumLit:
		return Value{S: n.S, E: n.Val}, nil
	case *Apply:
		return evalApply(n, a)
	}
	return Value{}, fmt.Errorf("logic: cannot evaluate term of type %T", t)
}

func evalApply(n *Apply, a Assignment) (Value, error) {
	switch n.Op {
	case OpAnd:
		for _, arg := range n.Args {
			v, err := Eval(arg, a)
			if err != nil {
				return Value{}, err
			}
			if !v.B {
				return BoolValue(false), nil
			}
		}
		return BoolValue(true), nil
	case OpOr:
		for _, arg := range n.Args {
			v, err := Eval(arg, a)
			if err != nil {
				return Value{}, err
			}
			if v.B {
				return BoolValue(true), nil
			}
		}
		return BoolValue(false), nil
	case OpNot:
		v, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(!v.B), nil
	case OpImplies:
		l, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		if !l.B {
			return BoolValue(true), nil
		}
		return Eval(n.Args[1], a)
	case OpIff:
		l, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		r, err := Eval(n.Args[1], a)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(l.B == r.B), nil
	case OpEq, OpNe:
		l, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		r, err := Eval(n.Args[1], a)
		if err != nil {
			return Value{}, err
		}
		eq := l.Equal(r)
		if n.Op == OpNe {
			eq = !eq
		}
		return BoolValue(eq), nil
	case OpLt, OpLe, OpGt, OpGe:
		l, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		r, err := Eval(n.Args[1], a)
		if err != nil {
			return Value{}, err
		}
		var b bool
		switch n.Op {
		case OpLt:
			b = l.I < r.I
		case OpLe:
			b = l.I <= r.I
		case OpGt:
			b = l.I > r.I
		case OpGe:
			b = l.I >= r.I
		}
		return BoolValue(b), nil
	case OpIte:
		c, err := Eval(n.Args[0], a)
		if err != nil {
			return Value{}, err
		}
		if c.B {
			return Eval(n.Args[1], a)
		}
		return Eval(n.Args[2], a)
	}
	return Value{}, fmt.Errorf("logic: cannot evaluate operator %v", n.Op)
}

// EvalBool evaluates a boolean term, returning its truth value.
func EvalBool(t Term, a Assignment) (bool, error) {
	if !t.Sort().IsBool() {
		return false, fmt.Errorf("logic: EvalBool on term of sort %v", t.Sort())
	}
	v, err := Eval(t, a)
	if err != nil {
		return false, err
	}
	return v.B, nil
}
