package lang

import (
	"fmt"
	"strconv"
)

// Pos is a 1-based source position (column counts bytes).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// tokKind enumerates the token vocabulary.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat

	// Keywords.
	tKwParam
	tKwArray
	tKwVar
	tKwFunc
	tKwIf
	tKwElse
	tKwFor
	tKwReturn
	tKwInt
	tKwFloat

	// Punctuation and operators.
	tLParen
	tRParen
	tLBrace
	tRBrace
	tLBrack
	tRBrack
	tComma
	tSemi
	tAssign // =
	tEq     // ==
	tNe     // !=
	tLt
	tLe
	tGt
	tGe
	tPlus
	tMinus
	tStar
	tSlash
	tPercent
	tAmp
	tPipe
	tCaret
	tShl
	tShr
	tAndAnd
	tOrOr
	tNot
)

var keywords = map[string]tokKind{
	"param":  tKwParam,
	"array":  tKwArray,
	"var":    tKwVar,
	"func":   tKwFunc,
	"if":     tKwIf,
	"else":   tKwElse,
	"for":    tKwFor,
	"return": tKwReturn,
	"int":    tKwInt,
	"float":  tKwFloat,
}

// tokName renders a token kind for error messages.
var tokName = map[tokKind]string{
	tEOF: "end of file", tIdent: "identifier", tInt: "integer literal",
	tFloat:   "float literal",
	tKwParam: "param", tKwArray: "array", tKwVar: "var", tKwFunc: "func",
	tKwIf: "if", tKwElse: "else", tKwFor: "for", tKwReturn: "return",
	tKwInt: "int", tKwFloat: "float",
	tLParen: "(", tRParen: ")", tLBrace: "{", tRBrace: "}",
	tLBrack: "[", tRBrack: "]", tComma: ",", tSemi: ";",
	tAssign: "=", tEq: "==", tNe: "!=", tLt: "<", tLe: "<=", tGt: ">",
	tGe: ">=", tPlus: "+", tMinus: "-", tStar: "*", tSlash: "/",
	tPercent: "%", tAmp: "&", tPipe: "|", tCaret: "^", tShl: "<<",
	tShr: ">>", tAndAnd: "&&", tOrOr: "||", tNot: "!",
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	pos  Pos
	text string  // idents
	ival int64   // tInt
	fval float64 // tFloat
}

// lexer produces tokens from source bytes, tracking line/column.
type lexer struct {
	src  string
	off  int
	line int
	col  int
	err  *Error // first lexical error
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) pos() Pos { return Pos{lx.line, lx.col} }

// advance consumes n bytes (which must not contain a newline).
func (lx *lexer) advance(n int) {
	lx.off += n
	lx.col += n
}

func (lx *lexer) peekByte(i int) byte {
	if lx.off+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+i]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Operator tables, longest match first: next tries the two-byte operators
// before the one-byte ones.
var (
	twoByteOps = map[string]tokKind{
		"==": tEq, "!=": tNe, "<=": tLe, ">=": tGe,
		"<<": tShl, ">>": tShr, "&&": tAndAnd, "||": tOrOr,
	}
	oneByteOps = map[byte]tokKind{
		'(': tLParen, ')': tRParen, '{': tLBrace, '}': tRBrace,
		'[': tLBrack, ']': tRBrack, ',': tComma, ';': tSemi,
		'=': tAssign, '<': tLt, '>': tGt, '+': tPlus, '-': tMinus,
		'*': tStar, '/': tSlash, '%': tPercent, '&': tAmp, '|': tPipe,
		'^': tCaret, '!': tNot,
	}
)

// next scans the next token. After an error it returns EOF; the error is
// in lx.err.
func (lx *lexer) next() token {
	for {
		c := lx.peekByte(0)
		switch {
		case c == 0:
			return token{kind: tEOF, pos: lx.pos()}
		case c == '\n':
			lx.off++
			lx.line++
			lx.col = 1
			continue
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance(1)
			continue
		case c == '/' && lx.peekByte(1) == '/':
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.advance(1)
			}
			continue
		}
		break
	}
	pos := lx.pos()
	c := lx.peekByte(0)
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.src[lx.off]) {
			lx.advance(1)
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return token{kind: kw, pos: pos, text: text}
		}
		return token{kind: tIdent, pos: pos, text: text}
	case isDigit(c):
		return lx.number(pos)
	}
	// two-byte operators first
	two := ""
	if lx.off+1 < len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	if k, ok := twoByteOps[two]; ok {
		lx.advance(2)
		return token{kind: k, pos: pos, text: two}
	}
	if k, ok := oneByteOps[c]; ok {
		text := lx.src[lx.off : lx.off+1]
		lx.advance(1)
		return token{kind: k, pos: pos, text: text}
	}
	lx.fail(pos, "unexpected character %q", string(c))
	return token{kind: tEOF, pos: pos}
}

// number scans an integer or float literal.
func (lx *lexer) number(pos Pos) token {
	start := lx.off
	if lx.peekByte(0) == '0' && (lx.peekByte(1) == 'x' || lx.peekByte(1) == 'X') {
		lx.advance(2)
		for lx.off < len(lx.src) && isHexDigit(lx.src[lx.off]) {
			lx.advance(1)
		}
		v, err := strconv.ParseInt(lx.src[start:lx.off], 0, 64)
		if err != nil {
			lx.fail(pos, "bad integer literal %q", lx.src[start:lx.off])
			return token{kind: tEOF, pos: pos}
		}
		return token{kind: tInt, pos: pos, ival: v}
	}
	isFloat := false
	for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
		lx.advance(1)
	}
	if lx.peekByte(0) == '.' && isDigit(lx.peekByte(1)) {
		isFloat = true
		lx.advance(1)
		for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
			lx.advance(1)
		}
	}
	if e := lx.peekByte(0); e == 'e' || e == 'E' {
		i := 1
		if s := lx.peekByte(1); s == '+' || s == '-' {
			i = 2
		}
		if isDigit(lx.peekByte(i)) {
			isFloat = true
			lx.advance(i)
			for lx.off < len(lx.src) && isDigit(lx.src[lx.off]) {
				lx.advance(1)
			}
		}
	}
	text := lx.src[start:lx.off]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			lx.fail(pos, "bad float literal %q", text)
			return token{kind: tEOF, pos: pos}
		}
		return token{kind: tFloat, pos: pos, fval: v}
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		lx.fail(pos, "bad integer literal %q", text)
		return token{kind: tEOF, pos: pos}
	}
	return token{kind: tInt, pos: pos, ival: v}
}

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (lx *lexer) fail(pos Pos, format string, args ...any) {
	if lx.err == nil {
		lx.err = errf(CodeSyntax, pos, format, args...)
	}
}
