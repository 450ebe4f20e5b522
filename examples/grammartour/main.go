// Grammartour: a tour of the underlying machinery — labeled CFGs, regex
// condition languages, taint-propagating CFG ∩ FSA intersection (Figure 7),
// FST images of grammars (Figure 6), and the Definition 2.2 confinement
// oracle — used directly as a library, without any PHP in sight.
//
//	go run ./examples/grammartour
package main

import (
	"fmt"
	"log"
	"strings"

	"sqlciv/internal/fst"
	"sqlciv/internal/grammar"
	"sqlciv/internal/rx"
	"sqlciv/internal/sqlgram"
)

func main() {
	// 1. A labeled query grammar, built by hand:
	//    query → "SELECT * FROM t WHERE id='" userid "'"
	//    userid → Σ* (direct taint)
	g := grammar.New()
	query := g.NewNT("query")
	userid := g.NewNT("userid")
	g.AddLabel(userid, grammar.Direct)
	sigma := g.NewNT("sigma")
	g.Add(sigma)
	for c := 0; c < 256; c++ {
		g.Add(sigma, grammar.T(byte(c)), sigma)
	}
	g.Add(userid, sigma)
	rhs := grammar.TermString("SELECT * FROM t WHERE id='")
	rhs = append(rhs, userid, grammar.T('\''))
	g.Add(query, rhs...)
	g.SetStart(query)
	fmt.Println("1. built a query grammar; userid is labeled", g.LabelOf(userid))

	// 2. Refine userid with the Figure 2 guard language: strings matching
	//    the unanchored [0-9]+ somewhere.
	re, err := rx.Parse("[0-9]+", true)
	if err != nil {
		log.Fatal(err)
	}
	m, _ := re.MatchDFA()
	refined, ok := grammar.IntersectInto(g, userid, m)
	if !ok {
		log.Fatal("intersection unexpectedly empty")
	}
	fmt.Println("2. intersected with the unanchored digit guard (Figure 7)")
	fmt.Println("   still derives the attack payload?",
		g.DerivesString(refined, "1'; DROP TABLE t; --"))
	fmt.Println("   derives a digit-free payload?",
		g.DerivesString(refined, "x); DELETE FROM t"))

	// 3. Transduce through addslashes (an FST image, §3.1.2).
	escaped, ok := fst.ImageInto(g, refined, fst.AddSlashes(), nil)
	if !ok {
		log.Fatal("image unexpectedly empty")
	}
	fmt.Println("3. applied the addslashes transducer")
	fmt.Println("   image still contains an unescaped quote?",
		g.DerivesString(escaped, "1'"))
	fmt.Println("   image contains the escaped form?",
		g.DerivesString(escaped, `1\'`))

	// 4. The Figure 6 transducer: str_replace("''", "'").
	f6 := fst.SQLQuoteUnescape()
	out, _ := f6.Apply("it''s")
	fmt.Printf("4. Figure 6 FST: %q -> %q\n", "it''s", out)

	// 5. The Definition 2.2 oracle on a rendered query.
	sql := sqlgram.Get()
	q := "SELECT * FROM t WHERE id='1'; DROP TABLE t; --'"
	inj := "1'; DROP TABLE t; --"
	i := strings.Index(q, inj)
	fmt.Printf("5. oracle: is %q confined in the rendered query? %v\n",
		inj, sql.Confined(q, i, i+len(inj)))
	benign := "SELECT * FROM t WHERE id='42'"
	j := strings.Index(benign, "42")
	fmt.Printf("   and the benign \"42\"? %v\n", sql.Confined(benign, j, j+2))
}
