package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the one textual rendering of terms: an infix
// "surface syntax" (for example "x = permit & !(lp < 100)") that
// reports print residual constraints in, and that diagnostics and
// examples use. TestPrinting pins where it puts parentheses.

// precedence levels for the infix printer, loosest to tightest.
const (
	precIff = iota
	precImplies
	precOr
	precAnd
	precCmp
	precNot
	precAtom
)

func opPrec(o Op) int {
	switch o {
	case OpIff:
		return precIff
	case OpImplies:
		return precImplies
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	case OpNot:
		return precNot
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return precCmp
	}
	return precAtom
}

func infixSym(o Op) string {
	switch o {
	case OpAnd:
		return " & "
	case OpOr:
		return " | "
	case OpImplies:
		return " => "
	case OpIff:
		return " <=> "
	case OpEq:
		return " = "
	case OpNe:
		return " != "
	case OpLt:
		return " < "
	case OpLe:
		return " <= "
	case OpGt:
		return " > "
	case OpGe:
		return " >= "
	}
	return " ?? "
}

func writeInfix(sb *strings.Builder, t Term, parentPrec int) {
	switch n := t.(type) {
	case *Var:
		sb.WriteString(n.Name)
	case *BoolLit:
		if n.Val {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *IntLit:
		sb.WriteString(strconv.FormatInt(n.Val, 10))
	case *EnumLit:
		sb.WriteString(n.Val)
	case *Apply:
		p := opPrec(n.Op)
		switch n.Op {
		case OpNot:
			if parentPrec > p {
				sb.WriteString("(")
			}
			sb.WriteString("!")
			writeInfix(sb, n.Args[0], p+1)
			if parentPrec > p {
				sb.WriteString(")")
			}
		case OpIte:
			sb.WriteString("ite(")
			writeInfix(sb, n.Args[0], 0)
			sb.WriteString(", ")
			writeInfix(sb, n.Args[1], 0)
			sb.WriteString(", ")
			writeInfix(sb, n.Args[2], 0)
			sb.WriteString(")")
		default:
			if parentPrec > p {
				sb.WriteString("(")
			}
			sym := infixSym(n.Op)
			for i, a := range n.Args {
				if i > 0 {
					sb.WriteString(sym)
				}
				// Children at the same precedence need parens on the
				// right for non-associative operators; for simplicity
				// we require strictly tighter children everywhere
				// except the n-ary associative connectives.
				childPrec := p + 1
				if n.Op == OpAnd || n.Op == OpOr {
					childPrec = p
				}
				writeInfix(sb, a, childPrec)
			}
			if parentPrec > p {
				sb.WriteString(")")
			}
		}
	default:
		fmt.Fprintf(sb, "<unknown term %T>", t)
	}
}

// String renders v in surface syntax.
func (v *Var) String() string { return v.Name }

// String renders b in surface syntax.
func (b *BoolLit) String() string {
	if b.Val {
		return "true"
	}
	return "false"
}

// String renders i in surface syntax.
func (i *IntLit) String() string { return strconv.FormatInt(i.Val, 10) }

// String renders e in surface syntax.
func (e *EnumLit) String() string { return e.Val }

// String renders a in surface syntax.
func (a *Apply) String() string {
	var sb strings.Builder
	writeInfix(&sb, a, 0)
	return sb.String()
}
