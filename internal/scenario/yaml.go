// Package scenario executes declarative fault-injection timelines
// against a dpu cluster under discrete-event virtual time.
//
// A scenario file (conventionally *.dpu.yaml) scripts the environment
// — loss/delay ramps, link flaps, partitions — together with a
// workload, membership churn and protocol-switch triggers, plus the
// outcome the run must converge to. The driver executes it against the
// built-in simulated network on a virtual clock, so a 50-node run over
// tens of simulated seconds finishes in well under a second of wall
// time, and internal/audit's eight always-on checks (order, exactly-once,
// gaps, view and switch agreement, switch position, Section 3) audit
// every run. See docs/SCENARIOS.md for the DSL reference.
package scenario

import (
	"fmt"
	"strings"
)

// parseYAML parses the YAML subset the scenario DSL uses into
// map[string]any / []any / string trees. Supported: block maps and
// lists by two-or-more-space indentation, `- ` list items (including
// inline `- key: value` map starts), flow lists `[a, b]`, flow maps
// `{k: v}`, single- and double-quoted scalars, and `#` comments. Not
// supported (and not needed): anchors, tags, multi-line scalars,
// multiple documents. Scalars stay strings; the schema layer types
// them.
func parseYAML(data []byte) (any, error) {
	lines, err := splitLines(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	p := &yparser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("yaml line %d: unexpected de-indent to %d columns", p.lines[p.pos].no, p.lines[p.pos].indent)
	}
	return v, nil
}

type yline struct {
	no     int // 1-based source line
	indent int
	text   string // content with indentation and comments stripped
}

// splitLines strips comments and blank lines and records indentation.
func splitLines(src string) ([]yline, error) {
	var out []yline
	for i, raw := range strings.Split(src, "\n") {
		no := i + 1
		if strings.Contains(raw, "\t") {
			trimmed := strings.TrimLeft(raw, " ")
			if strings.HasPrefix(trimmed, "\t") {
				return nil, fmt.Errorf("yaml line %d: tab indentation (use spaces)", no)
			}
		}
		text := stripComment(raw)
		trimmed := strings.TrimSpace(text)
		if trimmed == "" {
			continue
		}
		indent := len(text) - len(strings.TrimLeft(text, " "))
		out = append(out, yline{no: no, indent: indent, text: trimmed})
	}
	return out, nil
}

// stripComment removes a trailing `# ...` comment, respecting quotes.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#':
			// YAML requires a comment to start a line or follow whitespace;
			// "a#b" is a plain scalar.
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

type yparser struct {
	lines []yline
	pos   int
}

// parseBlock parses the run of lines at exactly `indent` columns
// (descending into deeper children) and returns the list or map they
// form.
func (p *yparser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("yaml: unexpected end of input")
	}
	if ln := p.lines[p.pos]; ln.indent != indent {
		return nil, fmt.Errorf("yaml line %d: expected %d-column indentation, got %d", ln.no, indent, ln.indent)
	}
	if isListItem(p.lines[p.pos].text) {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func (p *yparser) parseList(indent int) (any, error) {
	list := []any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yaml line %d: unexpected indentation inside list", ln.no)
		}
		if !isListItem(ln.text) {
			return nil, fmt.Errorf("yaml line %d: expected `- ` list item", ln.no)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		switch {
		case rest == "":
			// `-` alone: the item is the deeper block that follows.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("yaml line %d: empty list item", ln.no)
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		case isMapEntry(rest):
			// `- key: value`: an inline map start. The dash indents the
			// item's map by two extra columns; rewrite this line as its
			// first entry and parse the map in place.
			p.lines[p.pos] = yline{no: ln.no, indent: indent + 2, text: rest}
			v, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		default:
			p.pos++
			v, err := parseScalar(rest, ln.no)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
	}
	return list, nil
}

// isMapEntry reports whether text begins a `key:` map entry (a colon at
// top level, outside quotes and brackets, followed by space or EOL).
func isMapEntry(text string) bool {
	k, _, ok := splitKey(text)
	return ok && k != ""
}

// splitKey splits `key: value` at the first eligible colon.
func splitKey(text string) (key, value string, ok bool) {
	var quote byte
	depth := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(text) || text[i+1] == ' ' {
				return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+1:]), true
			}
		}
	}
	return "", "", false
}

func (p *yparser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yaml line %d: unexpected indentation", ln.no)
		}
		key, value, ok := splitKey(ln.text)
		if !ok || key == "" {
			return nil, fmt.Errorf("yaml line %d: expected `key: value`", ln.no)
		}
		key = unquote(key)
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml line %d: duplicate key %q", ln.no, key)
		}
		p.pos++
		if value != "" {
			v, err := parseScalar(value, ln.no)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// Bare `key:`: a nested block if deeper lines follow, else empty.
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = v
		} else {
			m[key] = ""
		}
	}
	return m, nil
}

// parseScalar types a flow value: quoted string, flow list, flow map,
// or bare string.
func parseScalar(s string, lineno int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case len(s) >= 2 && (s[0] == '"' || s[0] == '\''):
		if s[len(s)-1] != s[0] {
			return nil, fmt.Errorf("yaml line %d: unterminated quote", lineno)
		}
		return s[1 : len(s)-1], nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("yaml line %d: unterminated flow list", lineno)
		}
		items, err := splitFlow(s[1:len(s)-1], lineno)
		if err != nil {
			return nil, err
		}
		list := []any{}
		for _, it := range items {
			v, err := parseScalar(it, lineno)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
		return list, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, fmt.Errorf("yaml line %d: unterminated flow map", lineno)
		}
		items, err := splitFlow(s[1:len(s)-1], lineno)
		if err != nil {
			return nil, err
		}
		m := map[string]any{}
		for _, it := range items {
			key, value, ok := splitKey(it)
			if !ok || key == "" {
				return nil, fmt.Errorf("yaml line %d: expected `key: value` in flow map", lineno)
			}
			key = unquote(key)
			if _, dup := m[key]; dup {
				return nil, fmt.Errorf("yaml line %d: duplicate key %q", lineno, key)
			}
			v, err := parseScalar(value, lineno)
			if err != nil {
				return nil, err
			}
			m[key] = v
		}
		return m, nil
	default:
		return s, nil
	}
}

// splitFlow splits a flow body at top-level commas.
func splitFlow(s string, lineno int) ([]string, error) {
	var (
		out   []string
		start int
		quote byte
		depth int
	)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("yaml line %d: unbalanced brackets", lineno)
			}
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("yaml line %d: unterminated quote", lineno)
	}
	if depth != 0 {
		return nil, fmt.Errorf("yaml line %d: unbalanced brackets", lineno)
	}
	if last := strings.TrimSpace(s[start:]); last != "" {
		out = append(out, last)
	}
	return out, nil
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1]
	}
	return s
}
