// decode_test.go holds the request decoder to its contract. The daemon used
// to decode requests with encoding/json; that path lives on here as
// referenceParse, and FuzzDecodeRequest (in `make fuzz-smoke`) demands that
// both decoders accept the same bodies and produce DeepEqual requests.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"sqlciv/internal/corpus"
)

// referenceParse is encoding/json's decoding of a request body, as the
// daemon ran it before it had its own decoder. Besides the request it
// returns what follows the document, whitespace trimmed: Decoder.More
// reports no more data before a ']' or '}', so the reference accepts
// bodies with those trailing brackets.
func referenceParse(body []byte) (Request, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return req, nil, err
	}
	if dec.More() {
		return req, nil, errors.New("trailing data after JSON body")
	}
	return req, bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"), nil
}

// checkAgainstReference decodes body both ways and fails unless they agree:
// both reject, or both accept with DeepEqual requests. The one exception is
// a document followed by ']' or '}', which only the reference accepts.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, rest, wantErr := referenceParse(body)
	var got Request
	gotErr := parseRequest(bytes.Clone(body), &got) // parseRequest unescapes in place
	switch {
	case wantErr != nil:
		if gotErr == nil {
			t.Fatalf("%q: reference rejects (%v), decoder accepts %#v", body, wantErr, got)
		}
	case len(rest) > 0:
		if gotErr == nil {
			t.Fatalf("%q: decoder accepts %q after the document", body, rest)
		}
	case gotErr != nil:
		t.Fatalf("%q: reference accepts %#v, decoder rejects: %v", body, want, gotErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q:\ndecoder   %#v\nreference %#v", body, got, want)
	}
}

// decodeSeeds are the bodies FuzzDecodeRequest starts from, each a case the
// two decoders could plausibly disagree on.
var decodeSeeds = []string{
	// Escapes of every kind, in keys and values.
	`{"sources":{"a\"b\\c\/d\b\f\n\r\t":"\u003c?php echo \"x\" \\ \/ \u00e9\u20AC \ud83d\ude00 ?\u003e\u0026"},"root":"\u0000"}`,
	`{"root":"\n\n\n\n\n\n\n\n\n\n\u0041\u00e9\u4e2d"}`,
	// Case-folded field names, including the non-ASCII folds of s and k.
	`{"Sources":{"a":"x"},"ROOT":"r","Entries":["a"],"OPTIONS":{"XSS":true,"Emit_Pack":true},"Budget":{"MAX_STEPS":5}}`,
	"{\"\u017fources\":{\"a\":\"x\"},\"options\":{\"emit_pac\u212a\":true,\"magic_quote\u017f\":true}}",
	`{"\u017fources":{"a":"x"},"options":{"emit_pac\u212a":true}}`,
	"{\"options\":{\"\u0130ncremental\":true}}",
	"{\"options\":{\"\u0131ncremental\":true}}",
	// Repeated keys: maps merge, structs merge, the last scalar wins, and a
	// shorter array leaves what the longer one wrote behind its end.
	`{"sources":{"a":"1"},"sources":{"b":"2","a":"3"},"root":"x","root":"y","options":{"xss":true},"options":{"parallel":2}}`,
	`{"entries":["a","b","c"],"entries":["d",null]}`,
	`{"entries":["a","b","c"],"entries":["x"],"entries":["y",null,null,null]}`,
	`{"entries":["a","b"],"entries":[],"entries":[null]}`,
	`{"sources":{"a":"x"},"sources":null,"sources":{"b":"y"}}`,
	// Nulls everywhere.
	`null`,
	`{"sources":null,"root":null,"entries":null,"options":null,"budget":null}`,
	`{"sources":{"a":null},"entries":[null,"b"],"options":{"xss":null,"parallel":null},"budget":{"max_steps":null}}`,
	`{"root":"r","root":null,"options":{"xss":true},"options":null}`,
	// Numbers that are not 64-bit integers, and edges that are.
	`{"budget":{"max_steps":1e2}}`,
	`{"budget":{"max_steps":1.0}}`,
	`{"budget":{"max_steps":-0}}`,
	`{"budget":{"max_steps":9223372036854775808}}`,
	`{"budget":{"timeout_ms":9223372036854775807,"hotspot_timeout_ms":-9223372036854775808}}`,
	`{"options":{"parallel":-9223372036854775809}}`,
	`{"budget":{"max_steps":01}}`,
	`{"budget":{"max_steps":-}}`,
	`{"budget":{"max_steps":1.}}`,
	`{"budget":{"max_steps":1e}}`,
	`{"budget":{"max_mem_bytes":"1"}}`,
	// Invalid UTF-8 (overlong, encoded surrogate, truncated) becomes U+FFFD,
	// including strings that grow past their own bytes.
	"{\"sources\":{\"\xff\":\"\xfe\xc0\xafx\xed\xa0\x80\xe2\x82\"}}",
	"{\"sources\":{\"a\":\"\xff\xff\xff\xffabc\"}}",
	"{\"sources\":{\"a\":\"\\n\\n\\n\xff\xff\xff\xff\xffz\"}}",
	"{\"root\":\"\xef\xbf\xbd\"}",
	// Lone and mismatched surrogates.
	`{"root":"\ud800"}`,
	`{"root":"\udc00x"}`,
	`{"root":"\ud800\ud800"}`,
	`{"root":"\ud800\u0041"}`,
	`{"root":"\ud800\n"}`,
	`{"root":"\udbff\udfff"}`,
	`{"root":"\ud800\u"}`,
	// Control bytes where hex digits belong.
	"{\"root\":\"\\u00\x12e\"}",
	"{\"root\":\"\\ud800\\u\x10\x11\x12\x13\"}",
	// The trailing-bracket bodies the reference lets through.
	`{"sources":{"a.php":"x"}}}`,
	`{"sources":{"a.php":"x"}}]]]}}}`,
	"{\"sources\":{\"a.php\":\"x\"}} \n\t\r ",
	`{"sources":{"a.php":"x"}} x`,
	// Syntax and schema errors.
	``,
	`   `,
	`[]`,
	`"x"`,
	`1`,
	`true`,
	`nul`,
	`nullx`,
	`{`,
	`{"sources":{"a":"x"},}`,
	`{"sources":{"a":"x"} "root":"y"}`,
	`{"sources":{"a":"\x"}}`,
	`{"sources":{"a":"\u12"}}`,
	"{\"sources\":{\"a\":\"x\x01\"}}",
	`{"entries":[,]}`,
	`{"entries":["a",]}`,
	`{"entries":["a" "b"]}`,
	`{"entries":[1]}`,
	`{"entries":"a"}`,
	`{"sources":[]}`,
	`{"sources":{"a":1}}`,
	`{"sources":{"a":{"b":"c"}}}`,
	`{"unknown":1}`,
	`{"options":{"sources":{}}}`,
	`{"options":{"xss":1}}`,
	`{"options":{"xss":tru}}`,
	`{"budget":[]}`,
	"\ufeff{}",
	`{}`,
	`{"sources":{}}`,
	`{"sources":{"a":"x"},"entries":[ ]}`,
}

func FuzzDecodeRequest(f *testing.F) {
	eve := corpus.EVE()
	body, err := json.Marshal(Request{Sources: eve.Sources, Entries: eve.Entries})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAgainstReference)
}

// TestDecoderCoversSchema sets every field of the wire request, first all at
// once and then one at a time, and requires the decoder to read back what
// encoding/json wrote. A field added to Request, RequestOptions or
// RequestBudget that the decoder does not know fails here instead of being
// refused as unknown on the wire.
func TestDecoderCoversSchema(t *testing.T) {
	var leaves [][]int
	var walk func(typ reflect.Type, path []int)
	walk = func(typ reflect.Type, path []int) {
		for i := range typ.NumField() {
			p := append(append([]int(nil), path...), i)
			if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
				walk(f.Type, p)
			} else {
				leaves = append(leaves, p)
			}
		}
	}
	walk(reflect.TypeOf(Request{}), nil)

	roundTrip := func(name string, fill [][]int) {
		var want Request
		for n, path := range fill {
			setNonZero(t, reflect.ValueOf(&want).Elem().FieldByIndex(path), n+1)
		}
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := parseRequest(body, &got); err != nil {
			t.Fatalf("%s: %s: %v", name, body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\ngot  %#v\nwant %#v", name, got, want)
		}
	}
	roundTrip("every field", leaves)
	for _, path := range leaves {
		roundTrip(reflect.TypeOf(Request{}).FieldByIndex(path).Name, [][]int{path})
	}
}

// setNonZero gives v a value that is not its zero and, where the kind
// allows, differs with n.
func setNonZero(t *testing.T, v reflect.Value, n int) {
	t.Helper()
	s := fmt.Sprintf("<&> \"%d\" \\ \u00e9\n", n)
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		setNonZero(t, v.Index(0), n)
		setNonZero(t, v.Index(1), n+1000)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		setNonZero(t, k, n)
		setNonZero(t, e, n+1000)
		v.SetMapIndex(k, e)
	default:
		t.Fatalf("wire field of kind %s: teach setNonZero and the decoder about it", v.Kind())
	}
}

// TestTrailingBrackets pins the fix for bodies the encoding/json path let
// through: a ']' or '}' after the document is trailing data like any other.
func TestTrailingBrackets(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	const doc = `{"sources":{"a.php":"<?php echo 1;"},"entries":["a.php"]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{doc, http.StatusOK},
		{doc + " \n\t\r ", http.StatusOK},
		{doc + "}", http.StatusBadRequest},
		{doc + "]]]}}}", http.StatusBadRequest},
		{doc + " ]", http.StatusBadRequest},
		{doc + " x", http.StatusBadRequest},
		{doc + doc, http.StatusBadRequest},
	} {
		if code, body := post(t, srv, "/v1/analyze", tc.body); code != tc.want {
			t.Errorf("%q: status %d, want %d: %s", tc.body, code, tc.want, body)
		}
	}
}

// trickleReader hands out at most 7 bytes per Read and never declares a
// length, like a chunked upload.
type trickleReader struct{ r io.Reader }

func (t trickleReader) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), 7)]) }

// stallReader hands out its bytes, then reports the room readBody offers
// it and blocks until released, like a client that declared a length and
// stopped sending. Its read then fails as the server's read deadline would
// fail it.
type stallReader struct {
	data    []byte
	room    chan int
	release chan struct{}
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	r.room <- len(p)
	<-r.release
	return 0, os.ErrDeadlineExceeded
}

func TestReadBody(t *testing.T) {
	body := []byte(strings.Repeat("x", 1000))
	// A declared length is one allocation, one byte over the length.
	got, aerr := readBody(bytes.NewReader(body), int64(len(body)), 1<<20)
	if aerr != nil || !bytes.Equal(got, body) || cap(got) != len(body)+1 {
		t.Fatalf("sized read: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(body), len(body)+1)
	}
	// Without one the first buffer is firstBodyBuffer bytes.
	got, aerr = readBody(trickleReader{bytes.NewReader(body)}, -1, 1<<20)
	if aerr != nil || !bytes.Equal(got, body) || cap(got) != firstBodyBuffer {
		t.Fatalf("unsized read: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(body), firstBodyBuffer)
	}
	// A larger body grows by bodyGrowth, up to its declared length plus
	// one, or the limit plus one without a length.
	large := bytes.Repeat([]byte("y"), 600<<10)
	got, aerr = readBody(bytes.NewReader(large), int64(len(large)), 16<<20)
	if aerr != nil || !bytes.Equal(got, large) || cap(got) != len(large)+1 {
		t.Fatalf("large sized read: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(large), len(large)+1)
	}
	got, aerr = readBody(bytes.NewReader(large), -1, 16<<20)
	if aerr != nil || !bytes.Equal(got, large) || cap(got) != bodyGrowth*firstBodyBuffer {
		t.Fatalf("large unsized read: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(large), bodyGrowth*firstBodyBuffer)
	}
	got, aerr = readBody(bytes.NewReader(large), -1, 1<<20)
	if aerr != nil || !bytes.Equal(got, large) || cap(got) != 1<<20+1 {
		t.Fatalf("large unsized read under a limit: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(large), 1<<20+1)
	}
	got, aerr = readBody(trickleReader{bytes.NewReader(body)}, -1, 1000)
	if aerr != nil || !bytes.Equal(got, body) {
		t.Fatalf("body at the limit: err %v, len %d", aerr, len(got))
	}
	// The largest limit neither overflows nor sizes a buffer from the
	// declared length.
	got, aerr = readBody(bytes.NewReader(body), math.MaxInt64, math.MaxInt64)
	if aerr != nil || !bytes.Equal(got, body) || cap(got) != firstBodyBuffer {
		t.Fatalf("largest limit: err %v, len %d cap %d, want len %d cap %d",
			aerr, len(got), cap(got), len(body), firstBodyBuffer)
	}
	// Over the limit is 413, declared or not, even with the document done
	// long before the limit.
	padded := append([]byte(`{"root":"r"}`), bytes.Repeat([]byte(" "), 1000)...)
	for _, tc := range []struct {
		name string
		r    io.Reader
		n    int64
	}{
		{"declared", bytes.NewReader(padded), int64(len(padded))},
		{"undeclared", trickleReader{bytes.NewReader(padded)}, -1},
		{"understated", bytes.NewReader(padded), 10},
	} {
		if _, aerr := readBody(tc.r, tc.n, 999); aerr == nil || aerr.status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %v, want 413", tc.name, aerr)
		}
	}
	// A client that declares the largest body the daemon takes and then
	// stalls holds a buffer bounded by what it has sent, not by what it
	// declared: firstBodyBuffer bytes after a few bytes, and at most
	// bodyGrowth times what it sent after more.
	limit := Config{}.withDefaults().MaxBodyBytes
	for _, sent := range []int{5, 300 << 10} {
		r := &stallReader{
			data:    bytes.Repeat([]byte("x"), sent),
			room:    make(chan int),
			release: make(chan struct{}),
		}
		done := make(chan *apiError)
		go func() {
			_, aerr := readBody(r, limit, limit)
			done <- aerr
		}()
		held := sent + <-r.room
		if bound := max(firstBodyBuffer, bodyGrowth*sent); held > bound {
			t.Errorf("%d bytes sent of %d declared: buffer of %d bytes held, want at most %d",
				sent, limit, held, bound)
		}
		close(r.release)
		if aerr := <-done; aerr == nil || aerr.status != http.StatusBadRequest {
			t.Errorf("%d bytes sent, then a read error: %v, want 400", sent, aerr)
		}
	}
}

// BenchmarkDecodeRequest times reading and decoding each corpus body the
// way serve-fleet sends it (encoding/json's default, HTML-escaped), with
// the daemon's decoder and with the encoding/json reference.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, app := range corpus.Apps() {
		body, err := json.Marshal(Request{Sources: app.Sources, Entries: app.Entries})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app.Name+"/decoder", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				buf, aerr := readBody(bytes.NewReader(body), int64(len(body)), 16<<20)
				if aerr != nil {
					b.Fatal(aerr)
				}
				if _, aerr := decodeRequest(buf); aerr != nil {
					b.Fatal(aerr)
				}
			}
		})
		b.Run(app.Name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for range b.N {
				if _, _, err := referenceParse(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
