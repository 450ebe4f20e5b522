package php

import (
	"fmt"
	"strings"
)

// Lexer turns PHP source into tokens. It handles <?php ... ?> boundaries
// (text outside tags becomes InlineHTML tokens), line comments (// and #),
// block comments, single-quoted strings with their two escapes, and
// double-quoted strings as interpolation token sequences.
type Lexer struct {
	src    string
	pos    int
	line   int
	inPHP  bool
	tokens []Token
}

// Lex tokenizes src, returning the token stream terminated by EOF.
func Lex(src string) ([]Token, error) {
	l := &Lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		if !l.inPHP {
			if err := l.lexHTML(); err != nil {
				return nil, err
			}
			continue
		}
		if err := l.lexPHP(); err != nil {
			return nil, err
		}
	}
	l.emit(EOF, "")
	return l.tokens, nil
}

func (l *Lexer) emit(k Kind, v string) {
	l.tokens = append(l.tokens, Token{Kind: k, Value: v, Line: l.line})
}

func (l *Lexer) countLines(s string) {
	l.line += strings.Count(s, "\n")
}

// lexHTML emits the inline HTML up to the next open tag and enters PHP
// after it. The tag is the first "<?php", or else the first short "<?",
// found in one scan: a "<?php" contains a "<?", so the first "<?" either
// starts the first "<?php" or comes before it.
func (l *Lexer) lexHTML() error {
	rest := l.src[l.pos:]
	idx, tagLen := strings.Index(rest, "<?"), 2
	if idx >= 0 {
		if strings.HasPrefix(rest[idx:], "<?php") {
			tagLen = 5
		} else if j := strings.Index(rest[idx+2:], "<?php"); j >= 0 {
			idx, tagLen = idx+2+j, 5
		}
	}
	if idx < 0 {
		chunk := l.src[l.pos:]
		if chunk != "" {
			l.emit(InlineHTML, chunk)
			l.countLines(chunk)
		}
		l.pos = len(l.src)
		return nil
	}
	if idx > 0 {
		chunk := l.src[l.pos : l.pos+idx]
		l.emit(InlineHTML, chunk)
		l.countLines(chunk)
	}
	l.pos += idx + tagLen
	l.inPHP = true
	return nil
}

func (l *Lexer) peekByte(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) lexPHP() error {
	c := l.src[l.pos]
	switch {
	case c == '\n':
		l.line++
		l.pos++
		return nil
	case c == ' ' || c == '\t' || c == '\r':
		l.pos++
		return nil
	case c == '?' && l.peekByte(1) == '>':
		l.pos += 2
		l.inPHP = false
		return nil
	case c == '/' && l.peekByte(1) == '/':
		l.skipLineComment()
		return nil
	case c == '#':
		l.skipLineComment()
		return nil
	case c == '/' && l.peekByte(1) == '*':
		return l.skipBlockComment()
	case c == '$':
		return l.lexVariable()
	case c == '\'':
		return l.lexSingleQuoted()
	case c == '"':
		return l.lexDoubleQuoted()
	case c == '<' && strings.HasPrefix(l.src[l.pos:], "<<<"):
		return l.lexHeredoc()
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case isIdentStart(c):
		return l.lexIdent()
	default:
		return l.lexOperator()
	}
}

func (l *Lexer) skipLineComment() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		// A closing tag ends a line comment in PHP.
		if l.src[l.pos] == '?' && l.peekByte(1) == '>' {
			return
		}
		l.pos++
	}
}

func (l *Lexer) skipBlockComment() error {
	start := l.line
	l.pos += 2
	for l.pos < len(l.src) {
		if l.src[l.pos] == '*' && l.peekByte(1) == '/' {
			l.pos += 2
			return nil
		}
		if l.src[l.pos] == '\n' {
			l.line++
		}
		l.pos++
	}
	return fmt.Errorf("php: line %d: unterminated block comment", start)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) lexVariable() error {
	start := l.pos + 1
	i := start
	for i < len(l.src) && isIdentChar(l.src[i]) {
		i++
	}
	if i == start {
		return fmt.Errorf("php: line %d: bare $", l.line)
	}
	l.emit(Variable, l.src[start:i])
	l.pos = i
	return nil
}

func (l *Lexer) lexSingleQuoted() error {
	startLine := l.line
	i := l.pos + 1
	var b strings.Builder
	for i < len(l.src) {
		c := l.src[i]
		if c == '\\' && i+1 < len(l.src) {
			n := l.src[i+1]
			// Single-quoted strings decode only \' and \\.
			if n == '\'' || n == '\\' {
				b.WriteByte(n)
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
			continue
		}
		if c == '\'' {
			l.emit(StringLit, b.String())
			l.pos = i + 1
			return nil
		}
		if c == '\n' {
			l.line++
		}
		b.WriteByte(c)
		i++
	}
	return fmt.Errorf("php: line %d: unterminated string", startLine)
}

// lexDoubleQuoted emits TemplStart, then alternating TemplText/TemplVar
// chunks, then TemplEnd. Supported interpolations: $name, {$name},
// {$name['key']}.
func (l *Lexer) lexDoubleQuoted() error {
	startLine := l.line
	l.emit(TemplStart, "")
	i := l.pos + 1
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			l.emit(TemplText, b.String())
			b.Reset()
		}
	}
	for i < len(l.src) {
		c := l.src[i]
		switch {
		case c == '\\' && i+1 < len(l.src):
			n := l.src[i+1]
			switch n {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"', '\\', '$':
				b.WriteByte(n)
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte('\\')
				b.WriteByte(n)
			}
			i += 2
		case c == '"':
			flush()
			l.emit(TemplEnd, "")
			l.pos = i + 1
			return nil
		case c == '$' && i+1 < len(l.src) && isIdentStart(l.src[i+1]):
			flush()
			j := i + 1
			for j < len(l.src) && isIdentChar(l.src[j]) {
				j++
			}
			l.emit(TemplVar, l.src[i+1:j])
			i = j
		case c == '{' && i+1 < len(l.src) && l.src[i+1] == '$':
			flush()
			end := strings.IndexByte(l.src[i:], '}')
			if end < 0 {
				return fmt.Errorf("php: line %d: unterminated interpolation", l.line)
			}
			l.emit(TemplVar, l.src[i+1:i+end]) // "$name" or "$name['k']"
			i += end + 1
		default:
			if c == '\n' {
				l.line++
			}
			b.WriteByte(c)
			i++
		}
	}
	return fmt.Errorf("php: line %d: unterminated string", startLine)
}

// lexHeredoc handles <<<LABEL ... LABEL; and the nowdoc form <<<'LABEL'.
// Heredoc bodies interpolate like double-quoted strings; nowdoc bodies are
// literal. Real applications build SQL in heredocs, so the token stream is
// the same interpolation sequence lexDoubleQuoted emits.
func (l *Lexer) lexHeredoc() error {
	startLine := l.line
	i := l.pos + 3
	nowdoc := false
	if i < len(l.src) && l.src[i] == '\'' {
		nowdoc = true
		i++
	}
	labStart := i
	for i < len(l.src) && isIdentChar(l.src[i]) {
		i++
	}
	label := l.src[labStart:i]
	if label == "" {
		return fmt.Errorf("php: line %d: missing heredoc label", startLine)
	}
	if nowdoc {
		if i >= len(l.src) || l.src[i] != '\'' {
			return fmt.Errorf("php: line %d: unterminated nowdoc label", startLine)
		}
		i++
	}
	// Skip to end of the opening line.
	for i < len(l.src) && l.src[i] != '\n' {
		i++
	}
	if i >= len(l.src) {
		return fmt.Errorf("php: line %d: unterminated heredoc", startLine)
	}
	i++ // consume newline
	l.line++
	// Find the terminator: a line starting with the label followed by ';'
	// or end of line.
	body := ""
	for {
		lineEnd := strings.IndexByte(l.src[i:], '\n')
		var line string
		if lineEnd < 0 {
			line = l.src[i:]
		} else {
			line = l.src[i : i+lineEnd]
		}
		trimmed := strings.TrimRight(line, "\r")
		if trimmed == label || strings.HasPrefix(trimmed, label+";") {
			// Terminator found. Strip the trailing newline of the body.
			body = strings.TrimSuffix(body, "\n")
			l.pos = i + len(label)
			break
		}
		if lineEnd < 0 {
			return fmt.Errorf("php: line %d: unterminated heredoc", startLine)
		}
		body += line + "\n"
		i += lineEnd + 1
		l.line++
	}
	if nowdoc {
		l.emit(StringLit, body)
		l.line++ // the terminator line
		return nil
	}
	// Interpolate like a double-quoted string by re-lexing the body.
	l.emit(TemplStart, "")
	if err := l.lexInterpBody(body); err != nil {
		return err
	}
	l.emit(TemplEnd, "")
	l.line++ // the terminator line
	return nil
}

// lexInterpBody emits TemplText/TemplVar tokens for an interpolated body
// (shared by heredocs; double-quoted strings have their own escapes).
func (l *Lexer) lexInterpBody(body string) error {
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			l.emit(TemplText, b.String())
			b.Reset()
		}
	}
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case c == '$' && i+1 < len(body) && isIdentStart(body[i+1]):
			flush()
			j := i + 1
			for j < len(body) && isIdentChar(body[j]) {
				j++
			}
			l.emit(TemplVar, body[i+1:j])
			i = j
		case c == '{' && i+1 < len(body) && body[i+1] == '$':
			flush()
			end := strings.IndexByte(body[i:], '}')
			if end < 0 {
				return fmt.Errorf("php: unterminated interpolation in heredoc")
			}
			l.emit(TemplVar, body[i+1:i+end])
			i += end + 1
		default:
			b.WriteByte(c)
			i++
		}
	}
	flush()
	return nil
}

func (l *Lexer) lexNumber() error {
	i := l.pos
	for i < len(l.src) && ((l.src[i] >= '0' && l.src[i] <= '9') || l.src[i] == '.') {
		i++
	}
	l.emit(Number, l.src[l.pos:i])
	l.pos = i
	return nil
}

func (l *Lexer) lexIdent() error {
	i := l.pos
	for i < len(l.src) && isIdentChar(l.src[i]) {
		i++
	}
	l.emit(Ident, l.src[l.pos:i])
	l.pos = i
	return nil
}

// operators, longest first.
var operators = []string{
	"===", "!==", "<=>", "...",
	"==", "!=", "<>", "<=", ">=", "&&", "||", ".=", "+=", "-=", "*=", "/=",
	"->", "=>", "++", "--", "::",
	"=", ".", "+", "-", "*", "/", "%", "<", ">", "!", "?", ":", ";", ",",
	"(", ")", "{", "}", "[", "]", "&", "@", "|", "^",
}

func (l *Lexer) lexOperator() error {
	rest := l.src[l.pos:]
	for _, op := range operators {
		if strings.HasPrefix(rest, op) {
			l.emit(Op, op)
			l.pos += len(op)
			return nil
		}
	}
	return fmt.Errorf("php: line %d: unexpected character %q", l.line, l.src[l.pos])
}
