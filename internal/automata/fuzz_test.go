package automata

import "testing"

// fuzzMaxStates bounds a decoded NFA and fuzzMaxDFA the DFAs whose
// per-symbol reference construction is run, so every input stays fast:
// subset construction is exponential in the worst case, and the reference
// pays a closure per subset and symbol.
const (
	fuzzMaxStates = 12
	fuzzMaxDFA    = 64
)

// nfaDecoder turns fuzz input into an NFA: each op byte picks one
// construction step, and the bytes after it are its operands. Input that
// runs out ends the decode; every input decodes to some NFA.
type nfaDecoder struct {
	data []byte
	syms []int // symbols worth colliding on: quote, backslash, digits, the marker
}

func (d *nfaDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// sym reads a symbol: operands below 192 pick from syms, the rest are the
// raw bytes 192–255.
func (d *nfaDecoder) sym() int {
	v := d.next()
	if v < 192 {
		return d.syms[v%len(d.syms)]
	}
	return v
}

// decode builds a stack of NFAs with randNFA's moves (symbol edges, byte
// ranges, ε-edges, accepting states) plus the combinators, then unions
// what is left on the stack.
func (d *nfaDecoder) decode() *NFA {
	stack := []*NFA{NewNFA()}
	for op := 0; op < 48 && len(d.data) > 0; op++ {
		top := stack[len(stack)-1]
		state := func() int { return d.next() % top.NumStates() }
		switch d.next() % 10 {
		case 0:
			if top.NumStates() < fuzzMaxStates {
				top.AddState()
			}
		case 1, 2:
			from, sym, to := state(), d.sym(), state()
			top.AddEdge(from, sym, to)
		case 3:
			from, lo, n, to := state(), byte(d.next()), byte(d.next()%64), state()
			hi := lo + n
			if hi < lo {
				hi = 255
			}
			top.AddByteRange(from, lo, hi, to)
		case 4:
			top.AddEps(state(), state())
		case 5:
			s := state()
			top.SetAccept(s, !top.IsAccept(s))
		case 6:
			switch d.next() % 4 {
			case 0:
				stack = append(stack, FromString(string([]byte{byte(d.sym()), byte(d.sym())})))
			case 1:
				stack = append(stack, SigmaStar())
			case 2:
				stack = append(stack, AnyByte())
			default:
				stack = append(stack, EpsilonLang())
			}
		case 7, 8:
			if len(stack) < 2 {
				continue
			}
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			if a.NumStates()+b.NumStates()+1 > fuzzMaxStates {
				continue
			}
			var u *NFA
			if d.next()%2 == 0 {
				u = Union(a, b)
			} else {
				u = Concat(a, b)
			}
			stack = append(stack[:len(stack)-2], u)
		case 9:
			if top.NumStates()+1 <= fuzzMaxStates {
				stack[len(stack)-1] = Star(top)
			}
		}
	}
	n := stack[0]
	for _, m := range stack[1:] {
		if n.NumStates()+m.NumStates()+1 > fuzzMaxStates {
			break
		}
		n = Union(n, m)
	}
	return n
}

// FuzzDeterminize holds the subset constructions to their contracts on
// NFAs decoded from the input: Determinize is bit-identical to the
// per-symbol reference determinizeDense, DeterminizeCapped(0) minimizes to
// an automaton isomorphic to Determinize's, and the NFA and both DFAs agree
// on a few words.
func FuzzDeterminize(f *testing.F) {
	f.Add([]byte{1, 0, 39, 0, 5, 0, 9})
	f.Add([]byte{0, 0, 3, 0, 48, 9, 1, 5, 1, 6, 1, 8, 0})
	f.Add([]byte{6, 1, 6, 0, 39, 92, 7, 1, 9, 4, 0, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 1, 1, 3, 2, 4, 1, 2, 5, 2, 6, 2, 8, 1})
	f.Add([]byte("'\\0aZ\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &nfaDecoder{data: data, syms: []int{'a', 'b', '\'', '\\', '0', '9', Marker}}
		n := d.decode()
		full := n.Determinize()
		if full.NumStates() <= fuzzMaxDFA && !dfaEqual(full, n.determinizeDense()) {
			t.Fatalf("Determinize diverged from the per-symbol reference")
		}
		imp, ok := n.DeterminizeCapped(0)
		if !ok {
			t.Fatal("DeterminizeCapped(0) aborted")
		}
		if !isomorphic(imp.Minimize(), full.Minimize()) {
			t.Fatal("minimized DeterminizeCapped(0) is not isomorphic to minimized Determinize")
		}
		words := [][]int{nil, {'a'}, {'\''}, {'a', 'b'}, {'\\', '\''}, {Marker, '0'}}
		for i := 0; i+6 <= len(data) && len(words) < 12; i += 6 {
			word := make([]int, 6)
			for j, b := range data[i : i+6] {
				word[j] = d.syms[int(b)%len(d.syms)]
			}
			words = append(words, word)
		}
		for _, w := range words {
			want := n.Accepts(w)
			if full.Accepts(w) != want || imp.Accepts(w) != want {
				t.Fatalf("on %v: NFA %v, Determinize %v, DeterminizeCapped %v", w, want, full.Accepts(w), imp.Accepts(w))
			}
		}
	})
}
