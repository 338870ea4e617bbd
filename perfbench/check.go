package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/types"
)

// A result set is checked in two steps. The fast step compares a
// fingerprint: the rows in a canonical order, with every float rounded to
// floatDigits significant digits, hashed. Two plans may sum floats in a
// different order, so a value lying on a rounding boundary can round two
// ways; the slow step, taken only when the fingerprints differ, compares the
// canonical rows with a relative tolerance instead.
const (
	floatDigits = 6
	floatTol    = 1e-9
)

// canonRow is one row split into its exact fields (rendered and joined) and
// its float fields.
type canonRow struct {
	key    string
	floats []float64
}

// resultSet is a statement's rows in canonical order.
type resultSet struct {
	rows  []canonRow
	kinds []types.Kind // column kinds, used to read rows rendered as text
	fp    uint64
}

// fromRows canonicalizes rows returned by the library.
func fromRows(rows []schema.Row) *resultSet {
	rs := &resultSet{rows: make([]canonRow, len(rows))}
	var b strings.Builder
	for i, row := range rows {
		if i == 0 {
			for _, d := range row {
				rs.kinds = append(rs.kinds, d.Kind())
			}
		}
		b.Reset()
		var fl []float64
		for _, d := range row {
			if d.Kind() == types.KindFloat {
				fl = append(fl, d.Float())
				b.WriteString("\x00f")
				continue
			}
			b.WriteString(d.String())
			b.WriteByte(0)
		}
		rs.rows[i] = canonRow{key: b.String(), floats: fl}
	}
	rs.finish()
	return rs
}

// fromWire canonicalizes rows the server rendered as text ("[v1, v2, ...]"),
// reading each field as the kind the reference result has in that column.
// It fails when a row does not have that shape.
func fromWire(rows []string, kinds []types.Kind) (*resultSet, error) {
	rs := &resultSet{rows: make([]canonRow, len(rows)), kinds: kinds}
	var b strings.Builder
	for i, text := range rows {
		fields := strings.Split(strings.TrimSuffix(strings.TrimPrefix(text, "["), "]"), ", ")
		if len(fields) != len(kinds) {
			return nil, fmt.Errorf("row %q: %d fields, want %d", text, len(fields), len(kinds))
		}
		b.Reset()
		var fl []float64
		for j, f := range fields {
			if kinds[j] == types.KindFloat {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("row %q: field %d: %w", text, j, err)
				}
				fl = append(fl, v)
				b.WriteString("\x00f")
				continue
			}
			b.WriteString(f)
			b.WriteByte(0)
		}
		rs.rows[i] = canonRow{key: b.String(), floats: fl}
	}
	rs.finish()
	return rs, nil
}

// finish sorts the rows and computes the fingerprint.
func (rs *resultSet) finish() {
	sort.Slice(rs.rows, func(i, j int) bool {
		a, b := rs.rows[i], rs.rows[j]
		if a.key != b.key {
			return a.key < b.key
		}
		for k := range a.floats {
			if a.floats[k] != b.floats[k] {
				return a.floats[k] < b.floats[k]
			}
		}
		return false
	})
	h := fnv.New64a()
	var buf []byte
	for _, r := range rs.rows {
		buf = append(buf[:0], r.key...)
		for _, f := range r.floats {
			buf = strconv.AppendFloat(append(buf, '|'), f, 'g', floatDigits, 64)
		}
		buf = append(buf, '\n')
		h.Write(buf)
	}
	rs.fp = h.Sum64()
}

// matches reports whether got holds the same rows as the reference rs.
func (rs *resultSet) matches(got *resultSet) bool {
	if got.fp == rs.fp {
		return true
	}
	if len(got.rows) != len(rs.rows) {
		return false
	}
	for i, a := range rs.rows {
		b := got.rows[i]
		if a.key != b.key || len(a.floats) != len(b.floats) {
			return false
		}
		for k, x := range a.floats {
			y := b.floats[k]
			if math.Abs(x-y) > floatTol*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return false
			}
		}
	}
	return true
}
