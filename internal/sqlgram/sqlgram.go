// Package sqlgram provides the reference SQL grammar the policy checker
// measures syntactic confinement against (paper Def. 2.2/2.3 and §3.2.2),
// plus a confinement oracle used as ground truth in tests.
//
// The grammar is character-level: keywords are spelled out as terminal
// sequences and lexical categories (identifiers, string literals, numeric
// literals, whitespace) are ordinary nonterminals. This keeps the whole
// pipeline — generated query grammars, policy automata, derivability — in a
// single symbol space with no separate lexer to keep consistent.
package sqlgram

import (
	"sync"

	"sqlciv/internal/grammar"
)

// SQL is a built reference grammar with handles to the nonterminals the
// derivability checker needs.
type SQL struct {
	G *grammar.Grammar
	// Rec holds G's Earley tables, over every nonterminal, built once with
	// the grammar: check 5 and the confinement oracle below share them.
	Rec *grammar.Recognizer
	// Start derives one SQL statement (optionally followed by ; and more
	// statements — attackers piggyback statements, the grammar must parse
	// them so the oracle can recognize attacks as well-formed queries).
	Start grammar.Sym
	// Value derives a single SQL value (string or numeric literal or NULL).
	Value grammar.Sym
	// StringBody derives the inside of a single-quoted string literal.
	StringBody grammar.Sym
	// NumLit derives a numeric literal.
	NumLit grammar.Sym
	// Ident derives a plain identifier.
	Ident grammar.Sym
	// Expr derives a boolean expression (WHERE body).
	Expr grammar.Sym
}

var (
	once   sync.Once
	shared *SQL
)

// Get returns the process-wide reference grammar (built once; the grammar
// is immutable after construction).
func Get() *SQL {
	once.Do(func() { shared = build() })
	return shared
}

type builder struct {
	g *grammar.Grammar
}

func (b *builder) nt(name string) grammar.Sym { return b.g.NewNT(name) }

// rule adds lhs → concatenation of parts; a string part is a terminal run,
// a Sym part is spliced.
func (b *builder) rule(lhs grammar.Sym, parts ...interface{}) {
	var rhs []grammar.Sym
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			rhs = append(rhs, grammar.TermString(v)...)
		case grammar.Sym:
			rhs = append(rhs, v)
		case byte:
			rhs = append(rhs, grammar.T(v))
		default:
			panic("sqlgram: bad rule part")
		}
	}
	b.g.Add(lhs, rhs...)
}

func build() *SQL {
	g := grammar.New()
	b := &builder{g: g}

	// --- lexical layer ---------------------------------------------------
	ws := b.nt("WS")   // one or more blanks
	ows := b.nt("OWS") // optional whitespace
	b.rule(ws, " ", ows)
	b.rule(ws, "\t", ows)
	b.rule(ws, "\n", ows)
	b.rule(ows, ws)
	b.rule(ows)

	digit := b.nt("Digit")
	for c := byte('0'); c <= '9'; c++ {
		b.rule(digit, c)
	}
	digits := b.nt("Digits")
	b.rule(digits, digit)
	b.rule(digits, digit, digits)

	numLit := b.nt("NumLit")
	b.rule(numLit, digits)
	b.rule(numLit, digits, ".", digits)
	b.rule(numLit, "-", digits)
	b.rule(numLit, "-", digits, ".", digits)

	letter := b.nt("Letter")
	for c := byte('a'); c <= 'z'; c++ {
		b.rule(letter, c)
	}
	for c := byte('A'); c <= 'Z'; c++ {
		b.rule(letter, c)
	}
	b.rule(letter, "_")

	identChar := b.nt("IdentChar")
	b.rule(identChar, letter)
	b.rule(identChar, digit)

	identTail := b.nt("IdentTail")
	b.rule(identTail)
	b.rule(identTail, identChar, identTail)

	ident := b.nt("Ident")
	b.rule(ident, letter, identTail)

	// Backquoted identifier: `anything but backquote`.
	btChar := b.nt("BtChar")
	for c := 0; c < 256; c++ {
		if c != '`' {
			b.rule(btChar, byte(c))
		}
	}
	btBody := b.nt("BtBody")
	b.rule(btBody)
	b.rule(btBody, btChar, btBody)
	btIdent := b.nt("BtIdent")
	b.rule(btIdent, "`", btBody, "`")

	name := b.nt("Name")
	b.rule(name, ident)
	b.rule(name, btIdent)
	// qualified column: t.col
	b.rule(name, ident, ".", ident)

	// String literal body: ordinary chars, backslash escapes, doubled ''.
	strChar := b.nt("StrChar")
	for c := 0; c < 256; c++ {
		if c != '\'' && c != '\\' {
			b.rule(strChar, byte(c))
		}
	}
	escAny := b.nt("EscSeq")
	for c := 0; c < 256; c++ {
		b.rule(escAny, "\\", byte(c))
	}
	strBody := b.nt("StrBody")
	b.rule(strBody)
	b.rule(strBody, strChar, strBody)
	b.rule(strBody, escAny, strBody)
	b.rule(strBody, "''", strBody)
	// Concatenation closure: lets any contiguous segment of a literal body
	// be covered by a single StrBody occurrence, so mid-literal substrings
	// are syntactically confined under Definition 2.2 (a right-recursive
	// body alone only covers suffixes).
	b.rule(strBody, strBody, strBody)

	strLit := b.nt("StrLit")
	b.rule(strLit, "'", strBody, "'")

	value := b.nt("Value")
	b.rule(value, strLit)
	b.rule(value, numLit)
	b.rule(value, "NULL")
	// Prepared-statement placeholder (§6.3: the PreparedStatement API
	// "forces inputs in queries built with it to be string or numeric
	// literals") — a template with ? placeholders is a well-formed query.
	b.rule(value, "?")

	// --- expressions -------------------------------------------------------
	operand := b.nt("Operand")
	b.rule(operand, value)
	b.rule(operand, name)

	cmpOp := b.nt("CmpOp")
	for _, op := range []string{"=", "!=", "<>", "<", ">", "<=", ">="} {
		b.rule(cmpOp, op)
	}

	cmp := b.nt("Cmp")
	b.rule(cmp, operand, ows, cmpOp, ows, operand)
	b.rule(cmp, operand, ws, "LIKE", ws, strLit)
	b.rule(cmp, operand, ws, "IS", ws, "NULL")
	b.rule(cmp, operand, ws, "IS", ws, "NOT", ws, "NULL")

	expr := b.nt("Expr")
	b.rule(expr, cmp)
	b.rule(expr, "(", ows, expr, ows, ")")
	b.rule(expr, expr, ws, "AND", ws, expr)
	b.rule(expr, expr, ws, "OR", ws, expr)
	b.rule(expr, "NOT", ws, expr)

	// --- clauses -----------------------------------------------------------
	colList := b.nt("ColList")
	b.rule(colList, name)
	b.rule(colList, name, ows, ",", ows, colList)

	selList := b.nt("SelList")
	b.rule(selList, "*")
	b.rule(selList, colList)

	valueList := b.nt("ValueList")
	b.rule(valueList, value)
	b.rule(valueList, value, ows, ",", ows, valueList)
	b.rule(cmp, operand, ws, "IN", ows, "(", ows, valueList, ows, ")")

	whereOpt := b.nt("WhereOpt")
	b.rule(whereOpt)
	b.rule(whereOpt, ws, "WHERE", ws, expr)

	orderOpt := b.nt("OrderOpt")
	b.rule(orderOpt)
	b.rule(orderOpt, ws, "ORDER", ws, "BY", ws, name)
	b.rule(orderOpt, ws, "ORDER", ws, "BY", ws, name, ws, "ASC")
	b.rule(orderOpt, ws, "ORDER", ws, "BY", ws, name, ws, "DESC")

	limitOpt := b.nt("LimitOpt")
	b.rule(limitOpt)
	b.rule(limitOpt, ws, "LIMIT", ws, digits)
	b.rule(limitOpt, ws, "LIMIT", ws, digits, ows, ",", ows, digits)

	// --- statements ----------------------------------------------------------
	sel := b.nt("Select")
	joinOpt := b.nt("JoinOpt")
	b.rule(joinOpt)
	for _, kw := range []string{"JOIN", "LEFT JOIN", "INNER JOIN", "RIGHT JOIN"} {
		b.rule(joinOpt, ws, kw, ws, name, ws, "ON", ws, expr, joinOpt)
	}
	groupOpt := b.nt("GroupOpt")
	b.rule(groupOpt)
	b.rule(groupOpt, ws, "GROUP", ws, "BY", ws, colList)
	b.rule(groupOpt, ws, "GROUP", ws, "BY", ws, colList, ws, "HAVING", ws, expr)
	b.rule(sel, "SELECT", ws, selList, ws, "FROM", ws, name, joinOpt, whereOpt, groupOpt, orderOpt, limitOpt)
	// Subqueries: a parenthesized SELECT is an operand and an IN-source.
	b.rule(operand, "(", ows, sel, ows, ")")
	b.rule(cmp, operand, ws, "IN", ows, "(", ows, sel, ows, ")")
	// COUNT(*)-style aggregates in select lists and expressions.
	agg := b.nt("Aggregate")
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		b.rule(agg, fn, ows, "(", ows, "*", ows, ")")
		b.rule(agg, fn, ows, "(", ows, name, ows, ")")
	}
	b.rule(operand, agg)
	// Select lists may mix columns and aggregates.
	selItem := b.nt("SelItem")
	b.rule(selItem, name)
	b.rule(selItem, agg)
	selItems := b.nt("SelItems")
	b.rule(selItems, selItem)
	b.rule(selItems, selItem, ows, ",", ows, selItems)
	b.rule(selList, selItems)

	colsOpt := b.nt("ColsOpt")
	b.rule(colsOpt)
	b.rule(colsOpt, ows, "(", ows, colList, ows, ")")

	ins := b.nt("Insert")
	b.rule(ins, "INSERT", ws, "INTO", ws, name, colsOpt, ows, "VALUES", ows, "(", ows, valueList, ows, ")")

	asgn := b.nt("Assign")
	b.rule(asgn, name, ows, "=", ows, value)
	asgnList := b.nt("AssignList")
	b.rule(asgnList, asgn)
	b.rule(asgnList, asgn, ows, ",", ows, asgnList)

	upd := b.nt("Update")
	b.rule(upd, "UPDATE", ws, name, ws, "SET", ws, asgnList, whereOpt)

	del := b.nt("Delete")
	b.rule(del, "DELETE", ws, "FROM", ws, name, whereOpt)

	drop := b.nt("Drop")
	b.rule(drop, "DROP", ws, "TABLE", ws, name)

	stmt := b.nt("Stmt")
	for _, s := range []grammar.Sym{sel, ins, upd, del, drop} {
		b.rule(stmt, s)
	}

	// Comment tail: "-- anything" or "#anything" to end of query.
	commentChar := b.nt("CommentChar")
	for c := 0; c < 256; c++ {
		if c != '\n' {
			b.rule(commentChar, byte(c))
		}
	}
	commentBody := b.nt("CommentBody")
	b.rule(commentBody)
	b.rule(commentBody, commentChar, commentBody)
	b.rule(commentBody, commentBody, commentBody)
	comment := b.nt("Comment")
	b.rule(comment, "--", commentBody)
	b.rule(comment, "#", commentBody)

	tailOpt := b.nt("TailOpt")
	b.rule(tailOpt)
	b.rule(tailOpt, ows, comment)
	b.rule(tailOpt, ows, ";", ows, stmt, tailOpt)
	b.rule(tailOpt, ows, ";", tailOpt)

	query := b.nt("Query")
	b.rule(query, ows, stmt, tailOpt)
	g.SetStart(query)

	return &SQL{
		G:          g,
		Rec:        grammar.NewRecognizer(g),
		Start:      query,
		Value:      value,
		StringBody: strBody,
		NumLit:     numLit,
		Ident:      ident,
		Expr:       expr,
	}
}

// ParsesQuery reports whether q is a well-formed query of the reference
// grammar.
func (s *SQL) ParsesQuery(q string) bool {
	return s.Rec.RecognizeString(s.Start, q)
}

// Confined implements the paper's Definition 2.2 as a test oracle: the
// substring q[i:j] is syntactically confined in q iff some nonterminal X of
// the reference grammar derives exactly q[i:j] while the surrounding
// sentential form q[:i] X q[j:] is derivable from the start symbol.
func (s *SQL) Confined(q string, i, j int) bool {
	if i < 0 || j < i || j > len(q) {
		return false
	}
	mid := q[i:j]
	for nt := 0; nt < s.G.NumNTs(); nt++ {
		x := grammar.Sym(grammar.NumTerminals + nt)
		if !s.Rec.RecognizeString(x, mid) {
			continue
		}
		form := grammar.TermString(q[:i])
		form = append(form, x)
		form = append(form, grammar.TermString(q[j:])...)
		if s.Rec.Recognize(s.Start, form) {
			return true
		}
	}
	return false
}
