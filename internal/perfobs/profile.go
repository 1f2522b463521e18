// This file is the label-aware side of the package: a dependency-free
// reader for pprof protobuf profiles (the files Go's
// runtime/pprof writes) and a summarizer that turns one into a
// per-label cost table. The runtime stamps every activity with
// (place, pattern, kind, app) pprof labels (see obs.Profiler); this
// file answers the question those labels exist for — which place,
// finish pattern, or stolen task burned the CPU and heap — and backs
// the `tracecheck -profile` validator and the `make profile-smoke`
// gate.
//
// The decoder hand-rolls exactly the protobuf wire subset the
// profile.proto schema needs (varints and length-delimited fields;
// both packed and unpacked repeated ints), because the repo carries no
// external dependencies. Fields it does not model (locations,
// mappings, functions) are skipped structurally, so any valid pprof
// file parses.

package perfobs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ProfileValueType is one sample dimension of a profile ("cpu" in
// "nanoseconds", "inuse_space" in "bytes", ...).
type ProfileValueType struct {
	Type string
	Unit string
}

// ProfileSample is one decoded sample: its per-dimension values and the
// string labels attached to the goroutine that produced it.
type ProfileSample struct {
	Values    []int64
	Labels    map[string]string
	NumLabels map[string]int64
}

// Profile is the decoded subset of a pprof protobuf this package
// consumes: sample dimensions, samples with labels, and timing.
type Profile struct {
	SampleTypes   []ProfileValueType
	Samples       []ProfileSample
	TimeNanos     int64
	DurationNanos int64
	Period        int64
	PeriodType    ProfileValueType
}

// --- protobuf wire decoding ---

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

type protoReader struct {
	b   []byte
	pos int
}

func (r *protoReader) done() bool { return r.pos >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.b) {
			return 0, fmt.Errorf("truncated varint at offset %d", r.pos)
		}
		c := r.b[r.pos]
		r.pos++
		if shift == 63 && c > 1 {
			return 0, fmt.Errorf("varint overflow at offset %d", r.pos)
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("varint too long at offset %d", r.pos)
		}
	}
}

// tag reads one field tag, returning field number and wire type.
func (r *protoReader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	if v>>3 == 0 {
		return 0, 0, fmt.Errorf("field number 0 at offset %d", r.pos)
	}
	return int(v >> 3), int(v & 7), nil
}

func (r *protoReader) bytesField() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.b)-r.pos)
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *protoReader) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := r.varint()
		return err
	case wireFixed64:
		if len(r.b)-r.pos < 8 {
			return fmt.Errorf("truncated fixed64")
		}
		r.pos += 8
		return nil
	case wireBytes:
		_, err := r.bytesField()
		return err
	case wireFixed32:
		if len(r.b)-r.pos < 4 {
			return fmt.Errorf("truncated fixed32")
		}
		r.pos += 4
		return nil
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
}

// repeatedInt64 appends an int64 field occurrence to dst, handling both
// packed (length-delimited) and unpacked (single varint) encodings.
func repeatedInt64(dst []int64, r *protoReader, wire int) ([]int64, error) {
	if wire == wireVarint {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, int64(v)), nil
	}
	if wire != wireBytes {
		return nil, fmt.Errorf("repeated int64 with wire type %d", wire)
	}
	raw, err := r.bytesField()
	if err != nil {
		return nil, err
	}
	pr := &protoReader{b: raw}
	for !pr.done() {
		v, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, int64(v))
	}
	return dst, nil
}

// intermediate structures carrying string-table indices, resolved after
// the whole message is read (the table may follow the samples).
type rawLabel struct {
	key, str int64
	num      int64
	hasNum   bool
}

type rawSample struct {
	values []int64
	labels []rawLabel
}

type rawValueType struct{ typ, unit int64 }

// ParseProfile decodes a pprof protobuf profile, transparently
// ungzipping (runtime/pprof output is gzipped).
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	r := &protoReader{b: data}
	var (
		sampleTypes []rawValueType
		samples     []rawSample
		strtab      []string
		periodType  rawValueType
		p           Profile
	)
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		switch field {
		case 1: // sample_type
			raw, err := r.bytesField()
			if err != nil {
				return nil, fmt.Errorf("profile: sample_type: %w", err)
			}
			vt, err := parseValueType(raw)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			raw, err := r.bytesField()
			if err != nil {
				return nil, fmt.Errorf("profile: sample: %w", err)
			}
			s, err := parseSample(raw)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 6: // string_table
			raw, err := r.bytesField()
			if err != nil {
				return nil, fmt.Errorf("profile: string_table: %w", err)
			}
			strtab = append(strtab, string(raw))
		case 9, 10, 12: // time_nanos, duration_nanos, period
			v, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("profile: field %d: %w", field, err)
			}
			switch field {
			case 9:
				p.TimeNanos = int64(v)
			case 10:
				p.DurationNanos = int64(v)
			case 12:
				p.Period = int64(v)
			}
		case 11: // period_type
			raw, err := r.bytesField()
			if err != nil {
				return nil, fmt.Errorf("profile: period_type: %w", err)
			}
			periodType, err = parseValueType(raw)
			if err != nil {
				return nil, err
			}
		default:
			if err := r.skip(wire); err != nil {
				return nil, fmt.Errorf("profile: field %d: %w", field, err)
			}
		}
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strtab)) {
			return "", fmt.Errorf("profile: string index %d out of range [0,%d)", i, len(strtab))
		}
		return strtab[i], nil
	}
	for _, vt := range sampleTypes {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ProfileValueType{Type: t, Unit: u})
	}
	if t, err := str(periodType.typ); err == nil {
		u, _ := str(periodType.unit)
		p.PeriodType = ProfileValueType{Type: t, Unit: u}
	}
	for _, rs := range samples {
		s := ProfileSample{Values: rs.values}
		for _, l := range rs.labels {
			k, err := str(l.key)
			if err != nil {
				return nil, err
			}
			if l.hasNum {
				if s.NumLabels == nil {
					s.NumLabels = make(map[string]int64)
				}
				s.NumLabels[k] = l.num
				continue
			}
			v, err := str(l.str)
			if err != nil {
				return nil, err
			}
			if s.Labels == nil {
				s.Labels = make(map[string]string)
			}
			s.Labels[k] = v
		}
		p.Samples = append(p.Samples, s)
	}
	return &p, nil
}

func parseValueType(raw []byte) (rawValueType, error) {
	var vt rawValueType
	r := &protoReader{b: raw}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return vt, fmt.Errorf("profile: value_type: %w", err)
		}
		switch field {
		case 1, 2:
			v, err := r.varint()
			if err != nil {
				return vt, fmt.Errorf("profile: value_type: %w", err)
			}
			if field == 1 {
				vt.typ = int64(v)
			} else {
				vt.unit = int64(v)
			}
		default:
			if err := r.skip(wire); err != nil {
				return vt, fmt.Errorf("profile: value_type: %w", err)
			}
		}
	}
	return vt, nil
}

func parseSample(raw []byte) (rawSample, error) {
	var s rawSample
	r := &protoReader{b: raw}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return s, fmt.Errorf("profile: sample: %w", err)
		}
		switch field {
		case 2: // value
			s.values, err = repeatedInt64(s.values, r, wire)
			if err != nil {
				return s, fmt.Errorf("profile: sample values: %w", err)
			}
		case 3: // label
			raw, err := r.bytesField()
			if err != nil {
				return s, fmt.Errorf("profile: label: %w", err)
			}
			l, err := parseLabel(raw)
			if err != nil {
				return s, err
			}
			s.labels = append(s.labels, l)
		default:
			if err := r.skip(wire); err != nil {
				return s, fmt.Errorf("profile: sample field %d: %w", field, err)
			}
		}
	}
	return s, nil
}

func parseLabel(raw []byte) (rawLabel, error) {
	var l rawLabel
	r := &protoReader{b: raw}
	for !r.done() {
		field, wire, err := r.tag()
		if err != nil {
			return l, fmt.Errorf("profile: label: %w", err)
		}
		switch field {
		case 1, 2, 3:
			v, err := r.varint()
			if err != nil {
				return l, fmt.Errorf("profile: label: %w", err)
			}
			switch field {
			case 1:
				l.key = int64(v)
			case 2:
				l.str = int64(v)
			case 3:
				l.num = int64(v)
				l.hasNum = true
			}
		default:
			if err := r.skip(wire); err != nil {
				return l, fmt.Errorf("profile: label field %d: %w", field, err)
			}
		}
	}
	return l, nil
}

// --- summarization ---

// valueIndex picks the sample dimension to aggregate: cpu nanoseconds
// for CPU profiles, inuse_space for heap profiles, the last dimension
// otherwise (pprof's own default).
func (p *Profile) valueIndex() int {
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" {
			return i
		}
	}
	for i, st := range p.SampleTypes {
		if st.Type == "inuse_space" {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// SummaryRow is one label tuple's aggregate cost.
type SummaryRow struct {
	// Labels holds the requested keys' values for this row (missing
	// keys render as "-").
	Labels map[string]string
	// Key is the canonical "k=v k2=v2" join, the row's identity.
	Key string
	// Value is the summed sample value (ns for CPU, bytes for heap).
	Value int64
	// Samples is the number of samples folded into the row.
	Samples int64
}

// ProfileSummary is the per-label cost table of one profile.
type ProfileSummary struct {
	// Keys are the label keys the table partitions by.
	Keys []string
	// ValueType/ValueUnit name the aggregated dimension.
	ValueType string
	ValueUnit string
	// Total is the profile-wide value sum; Labeled the sum over samples
	// carrying at least one of Keys.
	Total   int64
	Labeled int64
	// TotalSamples counts all samples; LabeledSamples those with at
	// least one of Keys.
	TotalSamples   int64
	LabeledSamples int64
	// Rows, sorted by descending Value.
	Rows []SummaryRow
}

// SummarizeProfile partitions p's samples by the given label keys and
// returns the per-tuple cost table. Samples carrying none of the keys
// fold into a single "(unlabeled)" row.
func SummarizeProfile(p *Profile, keys []string) *ProfileSummary {
	vi := p.valueIndex()
	s := &ProfileSummary{Keys: keys}
	if vi >= 0 && vi < len(p.SampleTypes) {
		s.ValueType = p.SampleTypes[vi].Type
		s.ValueUnit = p.SampleTypes[vi].Unit
	}
	rows := make(map[string]*SummaryRow)
	var sb strings.Builder
	for _, smp := range p.Samples {
		var v int64
		if vi >= 0 && vi < len(smp.Values) {
			v = smp.Values[vi]
		}
		s.Total += v
		s.TotalSamples++
		labeled := false
		sb.Reset()
		vals := make(map[string]string, len(keys))
		for i, k := range keys {
			lv, ok := smp.Labels[k]
			if ok {
				labeled = true
			} else {
				lv = "-"
			}
			vals[k] = lv
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(lv)
		}
		key := sb.String()
		if !labeled {
			key = "(unlabeled)"
		} else {
			s.Labeled += v
			s.LabeledSamples++
		}
		row, ok := rows[key]
		if !ok {
			row = &SummaryRow{Key: key, Labels: vals}
			rows[key] = row
		}
		row.Value += v
		row.Samples++
	}
	s.Rows = make([]SummaryRow, 0, len(rows))
	for _, r := range rows {
		s.Rows = append(s.Rows, *r)
	}
	sort.Slice(s.Rows, func(i, j int) bool {
		if s.Rows[i].Value != s.Rows[j].Value {
			return s.Rows[i].Value > s.Rows[j].Value
		}
		return s.Rows[i].Key < s.Rows[j].Key
	})
	return s
}

// LabeledFraction is the share of the profile's value carried by
// samples with at least one requested label key (0 on an empty
// profile).
func (s *ProfileSummary) LabeledFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Labeled) / float64(s.Total)
}

// Distinct returns the sorted distinct values of one label key across
// the labeled rows ("-" placeholders excluded).
func (s *ProfileSummary) Distinct(key string) []string {
	seen := make(map[string]bool)
	for _, r := range s.Rows {
		if v, ok := r.Labels[key]; ok && v != "-" {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// WriteTable renders the cost table, largest consumers first.
func (s *ProfileSummary) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "profile: %d samples, %d %s total, %.1f%% labeled by (%s)\n",
		s.TotalSamples, s.Total, s.ValueUnit, 100*s.LabeledFraction(),
		strings.Join(s.Keys, ", "))
	for _, r := range s.Rows {
		pct := 0.0
		if s.Total > 0 {
			pct = 100 * float64(r.Value) / float64(s.Total)
		}
		fmt.Fprintf(w, "%8.2f%% %12d %-6s %4d samples  %s\n",
			pct, r.Value, s.ValueUnit, r.Samples, r.Key)
	}
}

// ProfileCheck is the validator contract for a labeled profile — the
// tracecheck -profile gate.
type ProfileCheck struct {
	// MinSamples is the minimum number of samples overall.
	MinSamples int64
	// MinLabeledFraction is the minimum LabeledFraction (0 disables).
	MinLabeledFraction float64
	// MinDistinct maps a label key to the minimum number of distinct
	// values it must take across labeled samples.
	MinDistinct map[string]int
}

// CheckProfile summarizes p by keys and verifies the contract,
// returning the first violation (nil when the profile passes).
func CheckProfile(p *Profile, keys []string, c ProfileCheck) error {
	s := SummarizeProfile(p, keys)
	if s.TotalSamples < c.MinSamples {
		return fmt.Errorf("profile has %d samples, need >= %d (workload too short for the sampling rate?)",
			s.TotalSamples, c.MinSamples)
	}
	if c.MinLabeledFraction > 0 && s.LabeledFraction() < c.MinLabeledFraction {
		return fmt.Errorf("only %.1f%% of profile value is labeled by (%s), need >= %.1f%%",
			100*s.LabeledFraction(), strings.Join(keys, ", "), 100*c.MinLabeledFraction)
	}
	for _, k := range keys {
		need, ok := c.MinDistinct[k]
		if !ok || need <= 0 {
			continue
		}
		got := s.Distinct(k)
		if len(got) < need {
			return fmt.Errorf("label %q has %d distinct values %v, need >= %d",
				k, len(got), got, need)
		}
	}
	return nil
}
