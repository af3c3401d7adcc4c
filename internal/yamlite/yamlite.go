// Package yamlite is a small, dependency-free parser for the YAML subset
// the scenario spec format uses: indentation-nested maps and sequences,
// scalars, flow lists (`[a, b, c]`), quoted strings, and `#` comments.
// Every node carries its source line so decoders can report errors with
// file:line context — the strictness `omxsim validate` is built on.
//
// Deliberately unsupported (parse errors, not silent acceptance): tab
// indentation, duplicate map keys, anchors/aliases, multi-document
// streams, flow maps, and block scalars. Specs that need none of those
// stay readable and decode unambiguously.
package yamlite

import (
	"fmt"
	"strings"
)

// Kind discriminates the node variants.
type Kind int

// Node kinds.
const (
	Scalar Kind = iota
	Map
	Seq
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Map:
		return "mapping"
	case Seq:
		return "sequence"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one parsed value. Exactly one of Value/Pairs/Items is
// meaningful, per Kind; Line is the 1-based source line the node starts
// on.
type Node struct {
	Kind  Kind
	Line  int
	Value string // Scalar
	Pairs []Pair // Map, in source order
	Items []*Node
}

// Pair is one map entry.
type Pair struct {
	Key  string
	Line int
	Val  *Node
}

// Get returns the value for key ("" handling is the caller's business)
// and whether the key is present.
func (n *Node) Get(key string) (*Node, bool) {
	if n == nil || n.Kind != Map {
		return nil, false
	}
	for _, p := range n.Pairs {
		if p.Key == key {
			return p.Val, true
		}
	}
	return nil, false
}

// line is one significant source line after comment stripping.
type line struct {
	indent int
	text   string
	num    int
}

type parser struct {
	file  string
	lines []line
	pos   int
}

// Parse parses src. file names the source in error messages.
func Parse(src []byte, file string) (*Node, error) {
	p := &parser{file: file}
	if err := p.split(src); err != nil {
		return nil, err
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("%s:1: empty document", file)
	}
	root, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("%s:%d: unexpected content at indent %d (outdented past the document root?)", file, l.num, l.indent)
	}
	return root, nil
}

// split breaks src into significant lines, stripping comments and
// rejecting tab indentation.
func (p *parser) split(src []byte) error {
	for i, raw := range strings.Split(string(src), "\n") {
		num := i + 1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return fmt.Errorf("%s:%d: tab in indentation (use spaces)", p.file, num)
		}
		text := strings.TrimRight(stripComment(raw[indent:]), " \t")
		if text == "" {
			continue
		}
		p.lines = append(p.lines, line{indent: indent, text: text, num: num})
	}
	return nil
}

// stripComment removes a trailing ` # ...` comment outside quotes. A `#`
// at the start of the content is a whole-line comment.
func stripComment(s string) string {
	if strings.HasPrefix(s, "#") {
		return ""
	}
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && i > 0 && (s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

// parseBlock parses the map or sequence whose entries sit at exactly
// `indent`.
func (p *parser) parseBlock(indent int) (*Node, error) {
	l := p.lines[p.pos]
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseMap(indent int) (*Node, error) {
	n := &Node{Kind: Map, Line: p.lines[p.pos].num}
	seen := make(map[string]bool)
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%s:%d: unexpected indent %d (expected %d)", p.file, l.num, l.indent, indent)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, fmt.Errorf("%s:%d: sequence item in a mapping block", p.file, l.num)
		}
		key, rest, err := p.splitKey(l)
		if err != nil {
			return nil, err
		}
		if seen[key] {
			return nil, fmt.Errorf("%s:%d: duplicate key %q", p.file, l.num, key)
		}
		seen[key] = true
		p.pos++
		var val *Node
		if rest != "" {
			val, err = p.inlineValue(rest, l.num)
			if err != nil {
				return nil, err
			}
		} else if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			val, err = p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
		} else {
			val = &Node{Kind: Scalar, Line: l.num, Value: ""}
		}
		n.Pairs = append(n.Pairs, Pair{Key: key, Line: l.num, Val: val})
	}
	return n, nil
}

func (p *parser) parseSeq(indent int) (*Node, error) {
	n := &Node{Kind: Seq, Line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent {
			if l.indent > indent {
				return nil, fmt.Errorf("%s:%d: unexpected indent %d (expected %d)", p.file, l.num, l.indent, indent)
			}
			break
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		itemIndent := indent + 2
		switch {
		case rest == "":
			// `-` alone: the item is the nested block below.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("%s:%d: empty sequence item", p.file, l.num)
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
		case isKeyLine(rest):
			// Compact mapping: `- key: value` starts a map whose further
			// entries are indented to the content column.
			p.lines[p.pos] = line{indent: itemIndent, text: rest, num: l.num}
			item, err := p.parseMap(itemIndent)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
		default:
			p.pos++
			item, err := p.inlineValue(rest, l.num)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
		}
	}
	return n, nil
}

// splitKey splits a `key: rest` line.
func (p *parser) splitKey(l line) (key, rest string, err error) {
	i := keyColon(l.text)
	if i < 0 {
		return "", "", fmt.Errorf("%s:%d: expected `key: value`, got %q", p.file, l.num, l.text)
	}
	key = strings.TrimSpace(l.text[:i])
	if key == "" {
		return "", "", fmt.Errorf("%s:%d: empty key", p.file, l.num)
	}
	key = unquote(key)
	rest = strings.TrimSpace(l.text[i+1:])
	return key, rest, nil
}

// isKeyLine reports whether s starts a `key: ...` mapping entry.
func isKeyLine(s string) bool { return keyColon(s) >= 0 }

// keyColon finds the colon terminating a map key: the first `:` outside
// quotes that ends the line or is followed by a space.
func keyColon(s string) int {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == ':':
			if i+1 == len(s) || s[i+1] == ' ' {
				return i
			}
		}
	}
	return -1
}

// inlineValue parses a scalar or flow list appearing after `key:` or `-`.
func (p *parser) inlineValue(s string, num int) (*Node, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("%s:%d: unterminated flow list %q", p.file, num, s)
		}
		n := &Node{Kind: Seq, Line: num}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return n, nil
		}
		for _, part := range strings.Split(inner, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				return nil, fmt.Errorf("%s:%d: empty element in flow list %q", p.file, num, s)
			}
			n.Items = append(n.Items, &Node{Kind: Scalar, Line: num, Value: unquote(part)})
		}
		return n, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("%s:%d: flow mappings are not supported (use an indented block)", p.file, num)
	}
	return &Node{Kind: Scalar, Line: num, Value: unquote(s)}, nil
}

// unquote strips one level of matching quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
