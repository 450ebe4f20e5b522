package php

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.php", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`<?php $x = 'a'; ?>`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []Kind{Variable, Op, StringLit, Op, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, toks[i], want[i])
		}
	}
}

func TestLexInlineHTML(t *testing.T) {
	toks, err := Lex("<html><?php $x=1; ?><body>")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != InlineHTML || toks[0].Value != "<html>" {
		t.Fatalf("first = %v", toks[0])
	}
	last := toks[len(toks)-2]
	if last.Kind != InlineHTML || last.Value != "<body>" {
		t.Fatalf("last = %v", last)
	}
}

// TestLexOpenTagChoice pins which open tag ends a run of inline HTML: the
// first "<?php", or else the first short "<?" (so "<?=" opens PHP before
// its "=").
func TestLexOpenTagChoice(t *testing.T) {
	for _, c := range []struct {
		src, html, first string
	}{
		{"plain <b>text</b>", "plain <b>text</b>", ""},
		{"a<?php $x; <? $y;", "a", "x"},
		{"a<? $x;", "a", "x"},
		{"a<? $x; ?>b<?php $y;", "a<? $x; ?>b", "y"},
		{"a<?= $x ?>", "a", "="},
		{"<?php$x;", "", "x"},
		{"a<?ph $x;", "a", "ph"},
	} {
		toks, err := Lex(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		html, first := "", ""
		if toks[0].Kind == InlineHTML {
			html, toks = toks[0].Value, toks[1:]
		}
		if toks[0].Kind != EOF {
			first = toks[0].Value
		}
		if html != c.html || first != c.first {
			t.Errorf("%q: inline HTML %q then %q, want %q then %q", c.src, html, first, c.html, c.first)
		}
	}
}

func TestLexSingleQuotedEscapes(t *testing.T) {
	toks, err := Lex(`<?php $x = 'it\'s a \\ test \n';`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Value != `it's a \ test \n` {
		t.Fatalf("decoded = %q", toks[2].Value)
	}
}

func TestLexDoubleQuotedInterp(t *testing.T) {
	toks, err := Lex(`<?php $q = "WHERE id='$userid' AND x={$row['name']}";`)
	if err != nil {
		t.Fatal(err)
	}
	var vars []string
	var texts []string
	for _, tk := range toks {
		switch tk.Kind {
		case TemplVar:
			vars = append(vars, tk.Value)
		case TemplText:
			texts = append(texts, tk.Value)
		}
	}
	if len(vars) != 2 || vars[0] != "userid" || vars[1] != "$row['name']" {
		t.Fatalf("vars = %v", vars)
	}
	if texts[0] != "WHERE id='" {
		t.Fatalf("texts = %v", texts)
	}
}

func TestLexComments(t *testing.T) {
	src := `<?php
// line comment
# hash comment
/* block
comment */
$x = 1;`
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Variable {
		t.Fatalf("comments leaked: %v", toks[0])
	}
	if toks[0].Line != 6 {
		t.Fatalf("line tracking wrong: %d", toks[0].Line)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		`<?php $x = 'unterminated`,
		`<?php $x = "unterminated`,
		`<?php /* unterminated`,
		`<?php $`,
	} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestParseFigure2(t *testing.T) {
	// The paper's Figure 2, verbatim in structure.
	src := `<?php
isset($_GET['userid']) ?
    $userid = $_GET['userid'] : $userid = '';
if ($USER['groupid'] != 1)
{
    unp_msg($gp_permserror);
    exit;
}
if ($userid == '')
{
    unp_msg($gp_invalidrequest);
    exit;
}
if (!eregi('[0-9]+', $userid))
{
    unp_msg('You entered an invalid user ID.');
    exit;
}
$getuser = $DB->query("SELECT * FROM ~unp_user~ WHERE userid='$userid'");
if (!$DB->is_single_row($getuser))
{
    unp_msg('You entered an invalid user ID.');
    exit;
}
`
	src = strings.ReplaceAll(src, "~", "`")
	f := mustParse(t, src)
	if len(f.Stmts) != 6 {
		t.Fatalf("got %d top-level statements", len(f.Stmts))
	}
	// Statement 1: ternary with assignments.
	es, ok := f.Stmts[0].(*ExprStmt)
	if !ok {
		t.Fatalf("stmt 0 is %T", f.Stmts[0])
	}
	if _, ok := es.X.(*Ternary); !ok {
		t.Fatalf("stmt 0 expr is %T", es.X)
	}
	// Statement 5: $getuser = $DB->query(...)
	as := f.Stmts[4].(*ExprStmt).X.(*Assign)
	mc, ok := as.Value.(*MethodCall)
	if !ok || mc.Method != "query" {
		t.Fatalf("DB query call not parsed: %#v", as.Value)
	}
	interp, ok := mc.Args[0].(*Interp)
	if !ok {
		t.Fatalf("query arg is %T", mc.Args[0])
	}
	found := false
	for _, part := range interp.Parts {
		if v, ok := part.(*Var); ok && v.Name == "userid" {
			found = true
		}
	}
	if !found {
		t.Fatal("interpolated $userid missing")
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `<?php
if ($a) { $x = 1; } elseif ($b) { $x = 2; } else { $x = 3; }
while ($i < 10) { $i++; }
for ($i = 0; $i < 5; $i++) { $s .= 'a'; }
foreach ($rows as $row) { echo $row; }
foreach ($rows as $k => $v) { echo $k, $v; }
switch ($x) {
case 1: $y = 'one'; break;
default: $y = 'many';
}
`
	f := mustParse(t, src)
	if len(f.Stmts) != 6 {
		t.Fatalf("got %d statements", len(f.Stmts))
	}
	ifs := f.Stmts[0].(*IfStmt)
	if len(ifs.Else) != 1 {
		t.Fatal("elseif not chained")
	}
	if _, ok := ifs.Else[0].(*IfStmt); !ok {
		t.Fatal("elseif not desugared to nested if")
	}
	fe := f.Stmts[3].(*ForeachStmt)
	if fe.ValVar != "row" || fe.KeyVar != "" {
		t.Fatalf("foreach vars: %q %q", fe.KeyVar, fe.ValVar)
	}
	fe2 := f.Stmts[4].(*ForeachStmt)
	if fe2.KeyVar != "k" || fe2.ValVar != "v" {
		t.Fatalf("foreach kv: %q %q", fe2.KeyVar, fe2.ValVar)
	}
	sw := f.Stmts[5].(*SwitchStmt)
	if len(sw.Cases) != 2 || sw.Cases[1].Match != nil {
		t.Fatalf("switch cases wrong: %#v", sw.Cases)
	}
}

func TestParseFunctions(t *testing.T) {
	src := `<?php
function sanitize($s, $mode = 1, &$out) {
    global $db;
    return addslashes($s);
}
$clean = sanitize($_GET['x']);
`
	f := mustParse(t, src)
	fd, ok := f.Funcs["sanitize"]
	if !ok {
		t.Fatal("function not collected")
	}
	if len(fd.Params) != 3 || fd.Params[1].Default == nil || !fd.Params[2].ByRef {
		t.Fatalf("params wrong: %#v", fd.Params)
	}
	if _, ok := fd.Body[0].(*GlobalStmt); !ok {
		t.Fatal("global stmt missing")
	}
	if _, ok := fd.Body[1].(*ReturnStmt); !ok {
		t.Fatal("return stmt missing")
	}
}

func TestParsePrecedence(t *testing.T) {
	f := mustParse(t, `<?php $x = 'a' . 'b' . $c; $y = 1 + 2 * 3; $z = !$a && $b || $c;`)
	a0 := f.Stmts[0].(*ExprStmt).X.(*Assign)
	cat := a0.Value.(*Binary)
	if cat.Op != "." {
		t.Fatal("concat not parsed")
	}
	// Left associativity: ('a' . 'b') . $c
	if _, ok := cat.L.(*Binary); !ok {
		t.Fatal("concat associativity wrong")
	}
	a1 := f.Stmts[1].(*ExprStmt).X.(*Assign)
	add := a1.Value.(*Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != "*" {
		t.Fatal("mul precedence wrong")
	}
	a2 := f.Stmts[2].(*ExprStmt).X.(*Assign)
	or := a2.Value.(*Binary)
	if or.Op != "||" {
		t.Fatalf("top op = %s", or.Op)
	}
}

func TestParseCastsAndIncludes(t *testing.T) {
	f := mustParse(t, `<?php
$n = (int)$_GET['id'];
include("lang_" . $choice . ".php");
require_once('lib.php');
`)
	c := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*Cast)
	if c.Type != "int" {
		t.Fatalf("cast type %q", c.Type)
	}
	inc := f.Stmts[1].(*ExprStmt).X.(*IncludeExpr)
	if inc.Kind != "include" {
		t.Fatalf("include kind %q", inc.Kind)
	}
	if _, ok := inc.Arg.(*Binary); !ok {
		t.Fatal("dynamic include arg not a concat")
	}
	r1 := f.Stmts[2].(*ExprStmt).X.(*IncludeExpr)
	if r1.Kind != "require_once" {
		t.Fatalf("require kind %q", r1.Kind)
	}
}

func TestParseArraysAndIndexing(t *testing.T) {
	f := mustParse(t, `<?php
$a = array('x' => 1, 'y' => 2);
$b = [1, 2, 3];
$c = $a['x'];
$a[] = 4;
$u = $_POST['name'];
`)
	al := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*ArrayLit)
	if len(al.Items) != 2 || al.Items[0].Key == nil {
		t.Fatalf("array lit wrong: %#v", al.Items)
	}
	bl := f.Stmts[1].(*ExprStmt).X.(*Assign).Value.(*ArrayLit)
	if len(bl.Items) != 3 || bl.Items[0].Key != nil {
		t.Fatal("short array lit wrong")
	}
	push := f.Stmts[3].(*ExprStmt).X.(*Assign).Target.(*Index)
	if push.Key != nil {
		t.Fatal("push index should have nil key")
	}
}

func TestParseMethodAndProp(t *testing.T) {
	f := mustParse(t, `<?php $r = $DB->query($sql); $n = $user->name;`)
	mc := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*MethodCall)
	if mc.Method != "query" || len(mc.Args) != 1 {
		t.Fatal("method call wrong")
	}
	pr := f.Stmts[1].(*ExprStmt).X.(*Assign).Value.(*Prop)
	if pr.Name != "name" {
		t.Fatal("prop fetch wrong")
	}
}

func TestParseExitForms(t *testing.T) {
	f := mustParse(t, `<?php exit; die('bye'); exit(1);`)
	if _, ok := f.Stmts[0].(*ExprStmt).X.(*ExitExpr); !ok {
		t.Fatal("bare exit")
	}
	d := f.Stmts[1].(*ExprStmt).X.(*ExitExpr)
	if d.Arg == nil {
		t.Fatal("die arg lost")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`<?php if ($a { }`,
		`<?php foreach ($a as ) {}`,
		`<?php function () {}`,
		`<?php $x = ;`,
		`<?php 1 = 2;`,
		`<?php while ($a) `,
	} {
		if _, err := Parse("t.php", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseTernaryShortForm(t *testing.T) {
	f := mustParse(t, `<?php $x = $a ?: 'default';`)
	tern := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*Ternary)
	if tern.Then != nil {
		t.Fatal("short ternary should have nil Then")
	}
}

func TestLineNumbers(t *testing.T) {
	src := "<?php\n\n\n$x = 1;\n$y = 2;"
	f := mustParse(t, src)
	if f.Stmts[0].Pos() != 4 || f.Stmts[1].Pos() != 5 {
		t.Fatalf("lines: %d %d", f.Stmts[0].Pos(), f.Stmts[1].Pos())
	}
}

func TestKeywordHelpers(t *testing.T) {
	if !IsKeyword("foreach") || IsKeyword("myfunc") {
		t.Fatal("IsKeyword wrong")
	}
	if !strings.Contains(Token{Kind: Variable, Value: "x", Line: 3}.String(), "variable") {
		t.Fatal("token string wrong")
	}
}

func TestHeredoc(t *testing.T) {
	src := `<?php
$sql = <<<EOT
SELECT * FROM t
WHERE name='$name'
EOT;
mysql_query($sql);
`
	f := mustParse(t, src)
	interp, ok := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*Interp)
	if !ok {
		t.Fatalf("heredoc value is %T", f.Stmts[0].(*ExprStmt).X.(*Assign).Value)
	}
	var hasVar bool
	var text strings.Builder
	for _, p := range interp.Parts {
		switch v := p.(type) {
		case *StrLit:
			text.WriteString(v.Value)
		case *Var:
			if v.Name == "name" {
				hasVar = true
			}
		}
	}
	if !hasVar {
		t.Fatal("heredoc interpolation lost")
	}
	if !strings.Contains(text.String(), "SELECT * FROM t\nWHERE name='") {
		t.Fatalf("heredoc text = %q", text.String())
	}
}

func TestNowdoc(t *testing.T) {
	src := `<?php
$x = <<<'EOT'
literal $notavar
EOT;
`
	f := mustParse(t, src)
	lit, ok := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*StrLit)
	if !ok || lit.Value != "literal $notavar" {
		t.Fatalf("nowdoc = %#v", f.Stmts[0].(*ExprStmt).X.(*Assign).Value)
	}
}

func TestHeredocErrors(t *testing.T) {
	for _, src := range []string{
		"<?php $x = <<<EOT\nno end",
		"<?php $x = <<<\nEOT;",
		"<?php $x = <<<'EOT\nx\nEOT;",
	} {
		if _, err := Parse("t.php", src); err == nil {
			t.Errorf("should fail: %q", src)
		}
	}
}

func TestShortOpenTagAndCloseTag(t *testing.T) {
	f := mustParse(t, "<? $x = 1; ?>\nplain text")
	if len(f.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
	if _, ok := f.Stmts[1].(*HTMLStmt); !ok {
		t.Fatal("trailing HTML lost")
	}
}

func TestCommentEndedByCloseTag(t *testing.T) {
	f := mustParse(t, "<?php $x = 1; // comment ?>after")
	found := false
	for _, s := range f.Stmts {
		if h, ok := s.(*HTMLStmt); ok && h.Text == "after" {
			found = true
		}
	}
	if !found {
		t.Fatal("?> inside line comment should close PHP mode")
	}
}

func TestAtSuppressionAndNegation(t *testing.T) {
	f := mustParse(t, `<?php $x = @foo(-$y, +$z, !$w);`)
	call := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*Call)
	if call.Name != "foo" || len(call.Args) != 3 {
		t.Fatalf("call = %#v", call)
	}
	if u, ok := call.Args[0].(*Unary); !ok || u.Op != "-" {
		t.Fatal("unary minus lost")
	}
}

func TestAndOrKeywords(t *testing.T) {
	f := mustParse(t, `<?php $ok = $a and $b; $x = $c or $d;`)
	// `and` binds looser than `=`: ($ok = $a) and $b.
	if _, ok := f.Stmts[0].(*ExprStmt).X.(*Binary); !ok {
		t.Fatalf("and-expr shape: %T", f.Stmts[0].(*ExprStmt).X)
	}
}

func TestChainedMethodAndIndex(t *testing.T) {
	f := mustParse(t, `<?php $v = $db->res($q)->row['name'];`)
	idx := f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*Index)
	prop, ok := idx.Base.(*Prop)
	if !ok || prop.Name != "row" {
		t.Fatalf("chain shape: %#v", idx.Base)
	}
	if _, ok := prop.Object.(*MethodCall); !ok {
		t.Fatal("method in chain lost")
	}
}

func TestEmptyFunctionAndBareBlock(t *testing.T) {
	f := mustParse(t, `<?php
function noop() { }
{ $x = 1; }
`)
	if _, ok := f.Funcs["noop"]; !ok {
		t.Fatal("empty function lost")
	}
	if _, ok := f.Stmts[1].(*IfStmt); !ok {
		t.Fatal("bare block should parse")
	}
}

func TestBreakWithLevel(t *testing.T) {
	f := mustParse(t, `<?php
while ($a) { break 2; }
while ($b) { continue 1; }
`)
	if len(f.Stmts) != 2 {
		t.Fatal("loop statements lost")
	}
}

func TestGlobalMultiple(t *testing.T) {
	f := mustParse(t, `<?php function f() { global $a, $b; } `)
	g := f.Funcs["f"].Body[0].(*GlobalStmt)
	if len(g.Names) != 2 {
		t.Fatalf("globals = %v", g.Names)
	}
}

func TestInterpIndexWithoutQuotes(t *testing.T) {
	toks, err := Lex(`<?php $s = "x{$row[name]}y";`)
	if err != nil {
		t.Fatal(err)
	}
	var v string
	for _, tk := range toks {
		if tk.Kind == TemplVar {
			v = tk.Value
		}
	}
	if v != "$row[name]" {
		t.Fatalf("interp var = %q", v)
	}
	part, err := parseInterpVar(Token{Kind: TemplVar, Value: v, Line: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := part.(*Index)
	if !ok {
		t.Fatalf("part = %#v", part)
	}
	if idx.Key.(*StrLit).Value != "name" {
		t.Fatal("unquoted interp key wrong")
	}
}

func TestNegativeAndFloatNumbers(t *testing.T) {
	f := mustParse(t, `<?php $a = 3.25; $b = -7;`)
	if f.Stmts[0].(*ExprStmt).X.(*Assign).Value.(*NumLit).Value != "3.25" {
		t.Fatal("float literal lost")
	}
	u := f.Stmts[1].(*ExprStmt).X.(*Assign).Value.(*Unary)
	if u.Op != "-" {
		t.Fatal("negative literal should be unary minus")
	}
}

func TestDoWhile(t *testing.T) {
	f := mustParse(t, `<?php do { $x = 1; } while ($a);`)
	w, ok := f.Stmts[0].(*WhileStmt)
	if !ok || !w.DoWhile {
		t.Fatalf("stmt = %#v", f.Stmts[0])
	}
}

func TestListAssign(t *testing.T) {
	f := mustParse(t, `<?php list($a, , $b) = explode(',', $s);`)
	la, ok := f.Stmts[0].(*ExprStmt).X.(*ListAssign)
	if !ok {
		t.Fatalf("stmt = %#v", f.Stmts[0])
	}
	if len(la.Targets) != 3 || la.Targets[1] != nil {
		t.Fatalf("targets = %#v", la.Targets)
	}
	if _, ok := la.Value.(*Call); !ok {
		t.Fatal("list value lost")
	}
	if _, err := Parse("t.php", `<?php list(1) = $x;`); err == nil {
		t.Fatal("non-lvalue list target should fail")
	}
}
