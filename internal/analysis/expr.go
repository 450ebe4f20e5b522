package analysis

import (
	"strings"
	"sync"

	"sqlciv/internal/automata"
	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
	"sqlciv/internal/php"
	"sqlciv/internal/phplib"
)

// superglobals maps PHP superglobal array names to the taint label their
// entries carry (paper §2.2: GET/POST/cookies are direct; session data and
// database-backed stores are indirect).
var superglobals = map[string]grammar.Label{
	"_GET":             grammar.Direct,
	"_POST":            grammar.Direct,
	"_REQUEST":         grammar.Direct,
	"_COOKIE":          grammar.Direct,
	"_SERVER":          grammar.Direct,
	"_FILES":           grammar.Direct,
	"_SESSION":         grammar.Indirect,
	"HTTP_GET_VARS":    grammar.Direct,
	"HTTP_POST_VARS":   grammar.Direct,
	"HTTP_COOKIE_VARS": grammar.Direct,
}

// sinkFuncs maps query-executing functions to the index of their query
// argument.
var sinkFuncs = map[string]int{
	"mysql_query":    0,
	"mysqli_query":   1,
	"mysql_db_query": 1,
	"pg_query":       0,
	"sqlite_query":   0,
	"db_query":       0,
}

// sinkMethods are method names that execute their first argument as SQL.
// prepare is a sink too: its template must still be a well-formed query
// with no tainted fragments — bound parameters are confined by the API.
var sinkMethods = map[string]bool{
	"query": true, "sql_query": true, "execute": true, "exec": true,
	"query_first": true, "prepare": true,
}

// fetchMethods return database rows (indirect sources).
var fetchMethods = map[string]bool{
	"fetch": true, "fetch_array": true, "fetch_assoc": true,
	"fetch_row": true, "fetch_object": true, "fetch_fields": true,
	"result": true, "get_row": true, "sql_fetch_assoc": true,
	"fetchrow": true,
}

// sigma returns the cached Σ* nonterminal, labeled as requested. The
// labeled variants derive through a plain unlabeled Σ* so the label sits on
// exactly one nonterminal (the paper labels source nonterminals).
func (a *analyzer) sigma(label grammar.Label) grammar.Sym {
	if s, ok := a.sigmaNTs[label]; ok {
		return s
	}
	if label == 0 {
		s := a.g.NewNT("sigma")
		a.g.Add(s)
		for c := 0; c < 256; c++ {
			a.g.Add(s, grammar.T(byte(c)), s)
		}
		a.sigmaNTs[0] = s
		return s
	}
	s := a.g.NewNT("")
	a.g.AddLabel(s, label)
	a.g.Add(s, a.sigma(0))
	a.sigmaNTs[label] = s
	return s
}

// litNT returns a (cached) nonterminal deriving exactly s.
func (a *analyzer) litNT(s string) grammar.Sym {
	if a.lits == nil {
		a.lits = map[string]grammar.Sym{}
	}
	if nt, ok := a.lits[s]; ok {
		return nt
	}
	nt := a.g.NewNT("")
	a.g.AddString(nt, s)
	a.lits[s] = nt
	return nt
}

// numericWithLabels returns a nonterminal deriving numeric literals,
// carrying the union of labels reachable from the given arguments — a cast
// or arithmetic keeps taint but confines the language (what makes check 3
// succeed where binary taint tracking reports).
func (a *analyzer) numericWithLabels(args ...grammar.Sym) grammar.Sym {
	lbl := grammar.Label(0)
	for _, s := range args {
		lbl |= a.labelsOf(s)
	}
	if lbl == 0 {
		return a.numNT
	}
	nt := a.g.NewNT("")
	a.g.AddLabel(nt, lbl)
	a.g.Add(nt, a.numNT)
	return nt
}

// labelsOf computes the union of taint labels reachable from sym.
func (a *analyzer) labelsOf(sym grammar.Sym) grammar.Label {
	if sym == 0 || !a.g.IsNT(sym) {
		return 0
	}
	lbl := a.g.LabelOf(sym)
	for i, ok := range a.g.Reachable(sym) {
		if ok {
			lbl |= a.g.LabelOf(grammar.Sym(grammar.NumTerminals + i))
		}
	}
	// Deferred ops: their labels live on the (not-yet-lowered) argument.
	for opSym, op := range a.ops {
		if opSym == sym {
			lbl |= a.labelsOf(op.arg)
		}
	}
	return lbl
}

// deferOp registers a deferred string-operation production and returns its
// result nonterminal, keeping the argument's source name for reports.
func (a *analyzer) deferOp(op *opApp) grammar.Sym {
	name := ""
	if a.g.IsNT(op.arg) {
		name = a.g.RawName(op.arg)
	}
	nt := a.g.NewNT(name)
	a.ops[nt] = op
	return nt
}

// evalExpr abstracts one expression to a nonterminal deriving its possible
// string values.
func (a *analyzer) evalExpr(e env, x php.Expr) grammar.Sym {
	switch v := x.(type) {
	case *php.StrLit:
		return a.litNT(v.Value)
	case *php.NumLit:
		return a.litNT(v.Value)
	case *php.BoolLit:
		if v.Value {
			return a.litNT("1")
		}
		return a.emptyNT
	case *php.NullLit:
		return a.emptyNT
	case *php.Var:
		if lbl, ok := superglobals[v.Name]; ok {
			return a.sourceRead(e, v.Name+"[]", lbl)
		}
		if s, ok := e[v.Name]; ok {
			return s
		}
		return a.emptyNT
	case *php.Index:
		return a.evalIndex(e, v)
	case *php.Prop:
		if base, ok := v.Object.(*php.Var); ok {
			if s, ok2 := e[base.Name+"->"+v.Name]; ok2 {
				return s
			}
			if s, ok2 := e[base.Name+"[]"]; ok2 {
				return s
			}
		}
		return a.emptyNT
	case *php.Interp:
		nt := a.g.NewNT("")
		var rhs []grammar.Sym
		for _, part := range v.Parts {
			if lit, ok := part.(*php.StrLit); ok {
				rhs = append(rhs, grammar.TermString(lit.Value)...)
				continue
			}
			rhs = append(rhs, a.evalExpr(e, part))
		}
		a.g.Add(nt, rhs...)
		return nt
	case *php.Binary:
		return a.evalBinary(e, v)
	case *php.Unary:
		return a.evalUnary(e, v)
	case *php.Assign:
		return a.evalAssign(e, v)
	case *php.Ternary:
		a.evalExpr(e, v.Cond)
		if v.Then != nil {
			thenEnv := e.clone()
			elseEnv := e.clone()
			if !a.opts.DisableGuardRefinement {
				a.refine(thenEnv, v.Cond, true)
				a.refine(elseEnv, v.Cond, false)
			}
			tv := a.evalExpr(thenEnv, v.Then)
			ev := a.evalExpr(elseEnv, v.Else)
			a.mergeInto(e, thenEnv, elseEnv)
			return a.union(tv, ev)
		}
		// $a ?: $b — value of cond or else.
		cv := a.evalExpr(e, v.Cond)
		ev := a.evalExpr(e, v.Else)
		return a.union(cv, ev)
	case *php.Call:
		return a.evalCall(e, v)
	case *php.MethodCall:
		return a.evalMethodCall(e, v)
	case *php.IssetExpr:
		for _, arg := range v.Args {
			_ = arg // isset does not evaluate its argument's value
		}
		return a.boolNT
	case *php.EmptyExpr:
		return a.boolNT
	case *php.ArrayLit:
		return a.evalArrayLit(e, v, "")
	case *php.Cast:
		inner := a.evalExpr(e, v.X)
		switch v.Type {
		case "int", "float":
			return a.numericWithLabels(inner)
		case "bool":
			return a.boolNT
		default:
			return inner
		}
	case *php.IncludeExpr:
		a.doInclude(e, v)
		return a.boolNT
	case *php.ExitExpr:
		if v.Arg != nil {
			a.evalExpr(e, v.Arg)
		}
		return a.emptyNT
	case *php.PrintExpr:
		a.appendOutput(e, a.evalExpr(e, v.X))
		return a.litNT("1")
	case *php.ConstFetch:
		// Unknown bare constants stringify to their own name (classic PHP).
		return a.litNT(v.Name)
	case *php.ListAssign:
		val := a.evalExpr(e, v.Value)
		// Every slot receives the array's element language (positional
		// precision is not tracked; sound for taint and contents).
		for _, tgt := range v.Targets {
			if tgt != nil {
				a.assignTo(e, tgt, val)
			}
		}
		return val
	}
	return a.emptyNT
}

// sourceRead returns the env-cached source nonterminal for a user-input
// key, minting a labeled Σ* source on first read (or the addslashes range
// under magic_quotes_gpc). Caching in the environment makes guard
// refinement stick to later reads of the same key.
func (a *analyzer) sourceRead(e env, key string, lbl grammar.Label) grammar.Sym {
	if s, ok := e[key]; ok {
		return s
	}
	s := a.g.NewNT(key)
	a.g.AddLabel(s, lbl)
	if a.opts.MagicQuotes && lbl == grammar.Direct {
		a.g.Add(s, a.magicQuotesNT())
	} else {
		a.g.Add(s, a.sigma(0))
	}
	e[key] = s
	return s
}

// magicQuotesNT returns the cached nonterminal deriving the range of
// addslashes over Σ* — every string magic_quotes_gpc can deliver.
func (a *analyzer) magicQuotesNT() grammar.Sym {
	if a.magicNT != 0 {
		return a.magicNT
	}
	a.magicNT = grammar.FromNFAInto(a.g, fst.AddSlashes().RangeNFA(), 0)
	return a.magicNT
}

func (a *analyzer) evalIndex(e env, v *php.Index) grammar.Sym {
	base, ok := v.Base.(*php.Var)
	if !ok {
		// Nested indexing: evaluate the base, approximate by its value.
		return a.evalExpr(e, v.Base)
	}
	key, keyConst := "", false
	if v.Key != nil {
		key, keyConst = constKey(v.Key)
		if !keyConst {
			a.evalExpr(e, v.Key) // side effects
		}
	}
	if lbl, isSuper := superglobals[base.Name]; isSuper {
		if keyConst {
			return a.sourceRead(e, base.Name+"["+key+"]", lbl)
		}
		return a.sourceRead(e, base.Name+"[]", lbl)
	}
	if keyConst {
		if s, ok := e[base.Name+"["+key+"]"]; ok {
			return s
		}
	}
	if s, ok := e[base.Name+"[]"]; ok {
		return s
	}
	if s, ok := e[base.Name]; ok {
		// Indexing a scalar string: approximate by the string's language
		// (sound for taint; characters of it).
		return s
	}
	return a.emptyNT
}

func (a *analyzer) evalBinary(e env, v *php.Binary) grammar.Sym {
	switch v.Op {
	case ".":
		l := a.evalExpr(e, v.L)
		r := a.evalExpr(e, v.R)
		nt := a.g.NewNT("")
		a.g.Add(nt, l, r)
		return nt
	case "+", "-", "*", "/", "%":
		l := a.evalExpr(e, v.L)
		r := a.evalExpr(e, v.R)
		return a.numericWithLabels(l, r)
	case "&&", "||":
		a.evalExpr(e, v.L)
		a.evalExpr(e, v.R)
		return a.boolNT
	default: // comparisons
		a.evalExpr(e, v.L)
		a.evalExpr(e, v.R)
		return a.boolNT
	}
}

func (a *analyzer) evalUnary(e env, v *php.Unary) grammar.Sym {
	inner := a.evalExpr(e, v.X)
	switch v.Op {
	case "!":
		return a.boolNT
	case "-", "+":
		return a.numericWithLabels(inner)
	case "++", "--":
		res := a.numericWithLabels(inner)
		if t, ok := v.X.(*php.Var); ok {
			e[t.Name] = res
			if !a.inFunction {
				a.recordGlobal(t.Name, res)
			}
		}
		return res
	}
	return inner
}

func (a *analyzer) evalAssign(e env, v *php.Assign) grammar.Sym {
	var val grammar.Sym
	switch v.Op {
	case ".=":
		old := a.evalExpr(e, v.Target)
		rhs := a.evalExpr(e, v.Value)
		nt := a.g.NewNT("")
		a.g.Add(nt, old, rhs)
		val = nt
	case "+=", "-=", "*=", "/=":
		old := a.evalExpr(e, v.Target)
		rhs := a.evalExpr(e, v.Value)
		val = a.numericWithLabels(old, rhs)
	default:
		// Array literals assigned to a variable keep per-key precision.
		// Stale entries are cleared BEFORE the literal registers its keys.
		if al, ok := v.Value.(*php.ArrayLit); ok {
			if t, ok2 := v.Target.(*php.Var); ok2 {
				for k := range e {
					if strings.HasPrefix(k, t.Name+"[") || strings.HasPrefix(k, t.Name+"->") {
						delete(e, k)
					}
				}
				val = a.evalArrayLit(e, al, t.Name)
				e[t.Name] = val
				e[t.Name+"[]"] = val
				if !a.inFunction {
					a.recordGlobal(t.Name, val)
					a.recordGlobal(t.Name+"[]", val)
				}
				return val
			}
		}
		val = a.evalExpr(e, v.Value)
	}
	a.assignTo(e, v.Target, val)
	return val
}

// bindScalar sets a variable to a value; arrayish notes whether the value
// is an array (its element entry is set too).
func (a *analyzer) bindScalar(e env, name string, val grammar.Sym, arrayish bool) {
	// Overwriting clears stale per-key entries.
	for k := range e {
		if strings.HasPrefix(k, name+"[") || strings.HasPrefix(k, name+"->") {
			delete(e, k)
		}
	}
	e[name] = val
	if arrayish || a.arrayish[val] {
		e[name+"[]"] = val
	}
	if !a.inFunction {
		a.recordGlobal(name, val)
		if arrayish || a.arrayish[val] {
			a.recordGlobal(name+"[]", val)
		}
	}
}

func (a *analyzer) assignTo(e env, target php.Expr, val grammar.Sym) {
	switch t := target.(type) {
	case *php.Var:
		a.bindScalar(e, t.Name, val, false)
	case *php.Index:
		base, ok := t.Base.(*php.Var)
		if !ok {
			return
		}
		if t.Key != nil {
			if key, kc := constKey(t.Key); kc {
				e[base.Name+"["+key+"]"] = val
			} else {
				a.evalExpr(e, t.Key)
			}
		}
		if prev, ok := e[base.Name+"[]"]; ok {
			e[base.Name+"[]"] = a.union(prev, val)
		} else {
			e[base.Name+"[]"] = val
		}
		if !a.inFunction {
			a.recordGlobal(base.Name+"[]", val)
		}
	case *php.Prop:
		if base, ok := t.Object.(*php.Var); ok {
			e[base.Name+"->"+t.Name] = val
		}
	}
}

func (a *analyzer) evalArrayLit(e env, v *php.ArrayLit, varName string) grammar.Sym {
	elems := a.g.NewNT("")
	any := false
	for _, item := range v.Items {
		val := a.evalExpr(e, item.Value)
		a.g.Add(elems, val)
		any = true
		if varName != "" && item.Key != nil {
			if key, kc := constKey(item.Key); kc {
				e[varName+"["+key+"]"] = val
			}
		}
	}
	if !any {
		a.g.Add(elems)
	}
	if a.arrayish == nil {
		a.arrayish = map[grammar.Sym]bool{}
	}
	a.arrayish[elems] = true
	return elems
}

// evalArrayElems returns the element language of a foreach subject.
func (a *analyzer) evalArrayElems(e env, x php.Expr) grammar.Sym {
	if v, ok := x.(*php.Var); ok {
		if lbl, isSuper := superglobals[v.Name]; isSuper {
			return a.sourceRead(e, v.Name+"[]", lbl)
		}
		if s, ok2 := e[v.Name+"[]"]; ok2 {
			return s
		}
	}
	return a.evalExpr(e, x)
}

// constStringExpr statically evaluates an expression to a constant string.
func (a *analyzer) constStringExpr(x php.Expr) (string, bool) {
	switch v := x.(type) {
	case *php.StrLit:
		return v.Value, true
	case *php.NumLit:
		return v.Value, true
	case *php.BoolLit:
		if v.Value {
			return "1", true
		}
		return "", true
	case *php.NullLit:
		return "", true
	case *php.ConstFetch:
		return v.Name, true
	case *php.Interp:
		var b strings.Builder
		for _, part := range v.Parts {
			lit, ok := part.(*php.StrLit)
			if !ok {
				return "", false
			}
			b.WriteString(lit.Value)
		}
		return b.String(), true
	case *php.Binary:
		if v.Op != "." {
			return "", false
		}
		l, ok1 := a.constStringExpr(v.L)
		r, ok2 := a.constStringExpr(v.R)
		if ok1 && ok2 {
			return l + r, true
		}
	}
	return "", false
}

// ---- calls --------------------------------------------------------------

func (a *analyzer) evalCall(e env, v *php.Call) grammar.Sym {
	name := strings.ToLower(v.Name)

	// Sink functions: record a hotspot for the query argument.
	if qi, isSink := sinkFuncs[name]; isSink {
		args := a.evalArgs(e, v.Args)
		if qi < len(args) {
			a.addHotspot(v.Line, v.Name, args[qi])
		}
		return a.opaqueHandle()
	}

	// User-defined functions shadow the registry (PHP forbids redefining
	// builtins, but apps define helpers the registry does not know).
	if fd, ok := a.funcs[name]; ok {
		return a.callUser(e, name, fd, v.Args)
	}

	spec, known := phplib.Lookup(name)
	if !known {
		args := a.evalArgs(e, v.Args)
		return a.unknownResult(args)
	}
	return a.applySpec(e, spec, v.Args)
}

func (a *analyzer) evalArgs(e env, args []php.Expr) []grammar.Sym {
	out := make([]grammar.Sym, len(args))
	for i, arg := range args {
		out[i] = a.evalExpr(e, arg)
	}
	return out
}

// unknownResult is the sound default: Σ* carrying the union of argument
// labels.
func (a *analyzer) unknownResult(args []grammar.Sym) grammar.Sym {
	lbl := grammar.Label(0)
	for _, s := range args {
		lbl |= a.labelsOf(s)
	}
	if lbl == 0 {
		return a.sigma(0)
	}
	nt := a.g.NewNT("")
	a.g.AddLabel(nt, lbl)
	a.g.Add(nt, a.sigma(0))
	return nt
}

func (a *analyzer) opaqueHandle() grammar.Sym {
	return a.boolNT
}

func (a *analyzer) addHotspot(line int, call string, root grammar.Sym) {
	a.hotspots = append(a.hotspots, Hotspot{File: a.curFile, Line: line, Call: call, Root: root})
}

// applySpec interprets a phplib model.
func (a *analyzer) applySpec(e env, spec *phplib.Spec, argExprs []php.Expr) grammar.Sym {
	// Static argument info for FST construction.
	libArgs := make([]phplib.Arg, len(argExprs))
	for i, x := range argExprs {
		if s, ok := a.constStringExpr(x); ok {
			v := s
			libArgs[i].Const = &v
		}
	}
	switch spec.Kind {
	case phplib.KindFST:
		args := a.evalArgs(e, argExprs)
		var subject grammar.Sym
		if spec.Subject < len(args) {
			subject = args[spec.Subject]
		} else {
			subject = a.emptyNT
		}
		if spec.BuildFST != nil {
			if t, ok := spec.BuildFST(libArgs); ok {
				res := a.deferOp(&opApp{kind: opFST, t: t, arg: subject, desc: spec.Name})
				if spec.Name == "explode" {
					// §3.1.3: explode pieces are the maximal delimiter-free
					// substrings; with a constant delimiter, refine the
					// substring language by excluding the delimiter.
					if len(libArgs) > 0 && libArgs[0].Const != nil && *libArgs[0].Const != "" {
						res = a.deferOp(&opApp{
							kind: opIntersect,
							dfa:  a.noSubstringDFA(*libArgs[0].Const),
							arg:  res,
							desc: "explode pieces",
						})
					}
					if a.arrayish == nil {
						a.arrayish = map[grammar.Sym]bool{}
					}
					a.arrayish[res] = true
				}
				return res
			}
		}
		return a.unknownResult(args)
	case phplib.KindGuard:
		a.evalArgs(e, argExprs)
		return a.boolNT
	case phplib.KindSource:
		a.evalArgs(e, argExprs)
		nt := a.g.NewNT(spec.Name)
		a.g.AddLabel(nt, spec.Label)
		a.g.Add(nt, a.sigma(0))
		if a.arrayish == nil {
			a.arrayish = map[grammar.Sym]bool{}
		}
		a.arrayish[nt] = true
		return nt
	case phplib.KindPassThrough:
		args := a.evalArgs(e, argExprs)
		if spec.Subject < len(args) {
			return args[spec.Subject]
		}
		return a.emptyNT
	case phplib.KindNumeric:
		args := a.evalArgs(e, argExprs)
		return a.numericWithLabels(args...)
	case phplib.KindRegular:
		a.evalArgs(e, argExprs)
		return grammar.FromNFAInto(a.g, spec.Lang(), 0)
	case phplib.KindSprintf:
		return a.evalSprintf(e, argExprs)
	case phplib.KindImplode:
		args := a.evalArgs(e, argExprs)
		return a.evalImplode(libArgs, args, spec)
	}
	return a.sigma(0)
}

// evalSprintf models sprintf with a constant format.
func (a *analyzer) evalSprintf(e env, argExprs []php.Expr) grammar.Sym {
	args := a.evalArgs(e, argExprs)
	if len(argExprs) == 0 {
		return a.emptyNT
	}
	format, ok := a.constStringExpr(argExprs[0])
	if !ok {
		return a.unknownResult(args)
	}
	nt := a.g.NewNT("")
	var rhs []grammar.Sym
	argi := 1
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			rhs = append(rhs, grammar.T(c))
			i++
			continue
		}
		if i+1 >= len(format) {
			break
		}
		spec := format[i+1]
		i += 2
		switch spec {
		case '%':
			rhs = append(rhs, grammar.T('%'))
		case 's':
			if argi < len(args) {
				rhs = append(rhs, args[argi])
			}
			argi++
		case 'd', 'u', 'f', 'x', 'b', 'o':
			var of grammar.Sym = a.numNT
			if argi < len(args) {
				of = a.numericWithLabels(args[argi])
			}
			rhs = append(rhs, of)
			argi++
		default:
			// Width/precision modifiers: skip to the verb conservatively.
			return a.unknownResult(args)
		}
	}
	a.g.Add(nt, rhs...)
	return nt
}

// evalImplode models implode(glue, array): "" | E | E glue E …
func (a *analyzer) evalImplode(libArgs []phplib.Arg, args []grammar.Sym, spec *phplib.Spec) grammar.Sym {
	if spec.ArrayArg >= len(args) {
		return a.emptyNT
	}
	elem := args[spec.ArrayArg]
	var glue []grammar.Sym
	if spec.GlueArg < len(libArgs) && libArgs[spec.GlueArg].Const != nil {
		glue = grammar.TermString(*libArgs[spec.GlueArg].Const)
	} else if spec.GlueArg < len(args) {
		glue = []grammar.Sym{args[spec.GlueArg]}
	}
	nt := a.g.NewNT("")
	rest := a.g.NewNT("")
	a.g.Add(nt) // empty array
	a.g.Add(nt, elem, rest)
	a.g.Add(rest)
	tail := append(append([]grammar.Sym{}, glue...), elem, rest)
	a.g.Add(rest, tail...)
	return nt
}

// callUser analyzes a user-defined function context-insensitively: one set
// of parameter/return nonterminals accumulates all call sites (Minamide's
// grammar-variable treatment).
func (a *analyzer) callUser(e env, name string, fd *php.FuncDecl, argExprs []php.Expr) grammar.Sym {
	args := a.evalArgs(e, argExprs)
	fi := a.infos[name]
	if fi == nil {
		fi = &funcInfo{decl: fd, ret: a.g.NewNT("ret_" + name), out: a.g.NewNT("out_" + name)}
		for _, p := range fd.Params {
			fi.params = append(fi.params, a.g.NewNT("arg_"+name+"_"+p.Name))
		}
		a.infos[name] = fi
	}
	for i := range fd.Params {
		if i < len(args) {
			a.g.Add(fi.params[i], args[i])
		} else if fd.Params[i].Default != nil {
			if c, ok := a.constStringExpr(fd.Params[i].Default); ok {
				a.g.Add(fi.params[i], a.litNT(c))
			} else {
				a.g.Add(fi.params[i], a.sigma(0))
			}
		} else {
			a.g.Add(fi.params[i], a.emptyNT)
		}
	}
	if !fi.analyzed && !fi.analyzing {
		fi.analyzing = true
		fe := env{}
		for i, p := range fd.Params {
			fe[p.Name] = fi.params[i]
			fe[p.Name+"[]"] = fi.params[i]
		}
		prevIn := a.inFunction
		prevRets := a.curReturns
		a.inFunction = true
		a.curReturns = nil
		term := a.analyzeStmts(fe, fd.Body)
		for _, r := range a.curReturns {
			a.g.Add(fi.ret, r)
		}
		if term != termReturn {
			a.g.Add(fi.ret, a.emptyNT) // implicit null return
		}
		if out, ok := fe[outKey]; ok {
			a.g.Add(fi.out, out)
		} else {
			a.g.Add(fi.out)
		}
		a.curReturns = prevRets
		a.inFunction = prevIn
		fi.analyzing = false
		fi.analyzed = true
	}
	// Whatever the function echoes is emitted at the call site.
	a.appendOutput(e, fi.out)
	return fi.ret
}

func (a *analyzer) evalMethodCall(e env, v *php.MethodCall) grammar.Sym {
	m := strings.ToLower(v.Method)
	args := a.evalArgs(e, v.Args)
	switch {
	case sinkMethods[m]:
		if len(args) > 0 {
			a.addHotspot(v.Line, "->"+v.Method, args[0])
		}
		return a.opaqueHandle()
	case fetchMethods[m]:
		nt := a.g.NewNT("db_" + m)
		a.g.AddLabel(nt, grammar.Indirect)
		a.g.Add(nt, a.sigma(0))
		if a.arrayish == nil {
			a.arrayish = map[grammar.Sym]bool{}
		}
		a.arrayish[nt] = true
		return nt
	case m == "escape" || m == "escape_string" || m == "quote":
		if len(args) > 0 {
			return a.deferOp(&opApp{kind: opFST, t: addSlashesFST(), arg: args[0], desc: m})
		}
		return a.emptyNT
	default:
		return a.unknownResult(args)
	}
}

// ---- guard refinement ------------------------------------------------------

// refine narrows variable languages in env according to the condition being
// true (branch) or false (!branch) — the paper's §3.1.2 conditional
// intersection.
func (a *analyzer) refine(e env, cond php.Expr, branch bool) {
	switch v := cond.(type) {
	case *php.Unary:
		if v.Op == "!" {
			a.refine(e, v.X, !branch)
		}
	case *php.Binary:
		switch {
		case v.Op == "&&" && branch:
			a.refine(e, v.L, true)
			a.refine(e, v.R, true)
		case v.Op == "||" && !branch:
			a.refine(e, v.L, false)
			a.refine(e, v.R, false)
		}
		// Comparisons (==, !=) against constants involve PHP's dynamic
		// type conversions; the analysis does not model them (the paper
		// reports exactly this as its false-positive source, Figure 9).
	case *php.Call:
		a.refineGuardCall(e, v, branch)
	}
}

func (a *analyzer) refineGuardCall(e env, v *php.Call, branch bool) {
	spec, ok := phplib.Lookup(v.Name)
	if !ok || spec.Kind != phplib.KindGuard {
		return
	}
	g := spec.Guard
	if g.SubjectArg >= len(v.Args) {
		return
	}
	key, ok := a.subjectKey(v.Args[g.SubjectArg])
	if !ok {
		return
	}
	old, ok := e[key]
	if !ok {
		// First read happens inside the guard: mint the source so the
		// refinement sticks.
		old = a.evalExpr(e, v.Args[g.SubjectArg])
		if _, present := e[key]; !present {
			return // not a refinable location
		}
	}
	var d *automata.DFA
	if g.PatternArg >= 0 {
		if g.PatternArg >= len(v.Args) {
			return
		}
		pat, ok2 := a.constStringExpr(v.Args[g.PatternArg])
		if !ok2 {
			return
		}
		re, err := phplib.ParseGuardPattern(pat, g.Dialect)
		if err != nil {
			return
		}
		if branch {
			d, ok = re.MatchDFA()
		} else {
			d, ok = re.ComplementMatchDFA()
		}
		if !ok {
			return // past rx's DFA state cap: refine nothing, as for an unparseable pattern
		}
	} else {
		p := a.fixedGuardDFAs(v.Name, g)
		d = p.match
		if !branch {
			d = p.non
		}
	}
	e[key] = a.deferOp(&opApp{kind: opIntersect, dfa: d, arg: old, desc: "guard " + v.Name})
}

// subjectKey maps a guard subject expression to its environment key.
func (a *analyzer) subjectKey(x php.Expr) (string, bool) {
	switch v := x.(type) {
	case *php.Var:
		if _, isSuper := superglobals[v.Name]; isSuper {
			return v.Name + "[]", true
		}
		return v.Name, true
	case *php.Index:
		base, ok := v.Base.(*php.Var)
		if !ok {
			return "", false
		}
		if v.Key != nil {
			if key, kc := constKey(v.Key); kc {
				return base.Name + "[" + key + "]", true
			}
		}
		return base.Name + "[]", true
	}
	return "", false
}

type dfaPair struct {
	match *automata.DFA
	non   *automata.DFA
}

// guardCache and noSubCache hold the conditional-refinement automata at
// package level rather than per analyzer: the same fixed-language guards
// and sanitizer fragments recur on every page of an app, and the DFAs are
// immutable after construction, so one build (and one class-indexed slab)
// serves the whole process. Racing builders compute identical automata and
// the first store wins. Pattern guards need no cache here: rx caches their
// DFAs under (flags, body), which every dialect reduces to.
var (
	guardCache sync.Map // guard function name -> *dfaPair
	noSubCache sync.Map // string -> *automata.DFA
)

// fixedGuardDFAs caches the match/non-match DFA pair of a fixed-language
// guard.
func (a *analyzer) fixedGuardDFAs(name string, g *phplib.GuardSpec) *dfaPair {
	if p, ok := guardCache.Load(name); ok {
		return p.(*dfaPair)
	}
	m := g.FixedLang().Determinize().Minimize()
	v, _ := guardCache.LoadOrStore(name, &dfaPair{match: m, non: m.Complement().Minimize()})
	return v.(*dfaPair)
}

// addSlashesFST is the transducer for DB escape methods.
func addSlashesFST() *fst.FST { return fst.AddSlashes() }

// noSubstringDFA returns the (cached) DFA of strings NOT containing frag.
func (a *analyzer) noSubstringDFA(frag string) *automata.DFA {
	if d, ok := noSubCache.Load(frag); ok {
		return d.(*automata.DFA)
	}
	contains := automata.Concat(automata.Concat(automata.SigmaStar(), automata.FromString(frag)), automata.SigmaStar())
	d := automata.Intern(contains.Determinize().Complement().Minimize())
	v, _ := noSubCache.LoadOrStore(frag, d)
	return v.(*automata.DFA)
}
