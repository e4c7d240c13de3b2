package obs

import (
	"math"
	"strconv"
	"strings"
)

// Kind is a metric family's exposition type.
type Kind string

const (
	Counter   Kind = "counter"
	Gauge     Kind = "gauge"
	Histogram Kind = "histogram"
)

// Label is one name="value" pair of a series.
type Label struct{ Name, Value string }

// Expo builds one scrape in the Prometheus text exposition format
// (version 0.0.4). It is the one place that knows the format's rules the
// callers must not get wrong: a family's # HELP and # TYPE lines come
// once, before its first sample (and not at all when it has none), and a
// label value escapes backslash, double quote and newline — nothing
// else, which is not what %q does. The zero value is ready to use.
type Expo struct {
	buf    []byte
	name   string
	header string // the current family's HELP and TYPE lines, until written
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Family starts a family; call it once per family, before its samples.
func (e *Expo) Family(name, help string, kind Kind) {
	e.name = name
	e.header = "# HELP " + name + " " + help + "\n# TYPE " + name + " " + string(kind) + "\n"
}

// Sample appends one sample of the current family: the family name plus
// suffix ("" except for a histogram's _bucket, _sum and _count), the
// labels in the order given, and the value — an integer in full,
// anything else in the shortest form that parses back to the same
// float64.
func (e *Expo) Sample(suffix string, v float64, labels ...Label) {
	e.buf = append(e.buf, e.header+e.name+suffix...)
	e.header = ""
	sep := "{"
	for _, l := range labels {
		e.buf = append(e.buf, sep+l.Name+`="`+labelEscaper.Replace(l.Value)+`"`...)
		sep = ","
	}
	if len(labels) > 0 {
		e.buf = append(e.buf, '}')
	}
	format := byte('g')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		format = 'f'
	}
	e.buf = strconv.AppendFloat(append(e.buf, ' '), v, format, -1, 64)
	e.buf = append(e.buf, '\n')
}

// Bytes returns the scrape written so far.
func (e *Expo) Bytes() []byte { return e.buf }
