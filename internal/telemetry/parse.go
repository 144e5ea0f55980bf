package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// A Prometheus text-format parser. Two consumers: the exposition
// conformance test parses our own /metrics output back (what we emit
// must be machine-readable by the contract we claim), and the
// aggregation layer (condor-web, condor-status -metrics) scrapes other
// daemons' pages without guessing at line shapes. It understands
// exactly the subset the format defines: HELP/TYPE comments, samples
// with optional label sets, and the escape sequences for label values
// (\\, \", \n) and HELP text (\\, \n). Other comment lines (including
// our "# exemplar" annotations) are skipped, per the format's
// parsers-ignore-comments rule.

// Sample is one parsed time series sample.
type Sample struct {
	// Name is the sample's metric name (for histograms this includes
	// the _bucket/_sum/_count suffix).
	Name string
	// Labels holds the decoded label pairs, insertion-ordered as they
	// appeared on the line.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// Label is one decoded label pair.
type Label struct{ Name, Value string }

// String renders the pair as the text format spells it: name="value",
// the value escaped.
func (l Label) String() string { return l.Name + `="` + escapeLabel(l.Value) + `"` }

// Get returns the value of the named label ("" when absent).
func (s Sample) Get(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// ParsedFamily groups the parse results for one metric name.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, untyped
	Samples []Sample
}

// ParsedPage is a fully parsed exposition page.
type ParsedPage struct {
	// Families maps each base metric name to its family. Histogram
	// samples file under the base name (TYPE line's name), not the
	// suffixed sample names.
	Families map[string]*ParsedFamily
	order    []string
}

// Family returns the named family (nil when absent).
func (p *ParsedPage) Family(name string) *ParsedFamily { return p.Families[name] }

// Value returns the value of the first sample matching name and every
// given label pair, and whether one was found. Pass labels as
// alternating name, value strings.
func (p *ParsedPage) Value(name string, labels ...string) (float64, bool) {
	fam := p.Families[familyBase(p, name)]
	if fam == nil {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Get(labels[i]) != labels[i+1] {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Names lists the family names in page order.
func (p *ParsedPage) Names() []string { return append([]string(nil), p.order...) }

// familyBase maps a (possibly suffixed) sample name to the family it
// files under.
func familyBase(p *ParsedPage, name string) string {
	if _, ok := p.Families[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, found := strings.CutSuffix(name, suf); found {
			if _, ok := p.Families[base]; ok {
				return base
			}
		}
	}
	return name
}

// ParseText parses a Prometheus text exposition page.
func ParseText(r io.Reader) (*ParsedPage, error) {
	page := &ParsedPage{Families: map[string]*ParsedFamily{}}
	family := func(name string) *ParsedFamily {
		if f, ok := page.Families[name]; ok {
			return f
		}
		f := &ParsedFamily{Name: name, Type: "untyped"}
		page.Families[name] = f
		page.order = append(page.order, name)
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, family); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := family(familyBase(page, s.Name))
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return page, nil
}

// ParseTextString is ParseText over a string.
func ParseTextString(s string) (*ParsedPage, error) {
	return ParseText(strings.NewReader(s))
}

// parseComment handles "# HELP name text" and "# TYPE name kind";
// anything else after "#" is a free-form comment and is skipped.
func parseComment(line string, family func(string) *ParsedFamily) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		text := ""
		if len(fields) == 4 {
			text = unescapeHelp(fields[3])
		}
		family(fields[2]).Help = text
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		kind := fields[3]
		switch kind {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q", kind)
		}
		family(fields[2]).Type = kind
	}
	return nil
}

// parseSample decodes one "name{labels} value" line.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may trail the value; we never emit one but accept it.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels decodes "{a="x",b="y"}" handling \\, \", and \n escapes,
// returning the remainder after the closing brace.
func parseLabels(in string) ([]Label, string, error) {
	var labels []Label
	i := 1 // past '{'
	for {
		// Skip separators.
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return labels, in[i+1:], nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed label set %q", in)
		}
		name := in[i : i+eq]
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("unquoted label value in %q", in)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("unterminated label value in %q", in)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("dangling escape in %q", in)
				}
				switch in[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c in %q", in[i+1], in)
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: b.String()})
	}
}

// parseValue accepts the format's float spellings, +Inf/-Inf/NaN
// included.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(v, 64)
}

var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

func unescapeHelp(v string) string { return helpUnescaper.Replace(v) }

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
