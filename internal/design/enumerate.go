package design

import (
	"fmt"
	"strconv"
	"strings"
)

// EnumOptions bounds design-space enumeration over a parameter grammar.
// The zero value is usable.
type EnumOptions struct {
	// MaxPerParam caps the candidate values enumerated per integer
	// parameter; wide ranges are subsampled on a geometric ladder that
	// always keeps both endpoints. <= 0 means 12. Enum parameters always
	// contribute every token.
	MaxPerParam int
}

// maxPerParam resolves the effective per-parameter cap.
func (o EnumOptions) maxPerParam() int {
	if o.MaxPerParam <= 0 {
		return 12
	}
	if o.MaxPerParam < 2 {
		return 2
	}
	return o.MaxPerParam
}

// maxSpace caps the cross-product size Enumerate will materialize; a
// grammar whose ladders multiply beyond this is a configuration mistake,
// not a search space.
const maxSpace = 1 << 20

// Enumerate materializes the design space of one family: the cross
// product of per-parameter candidate values (every enum token; integer
// ranges subsampled on a geometric ladder of at most MaxPerParam values
// including both endpoints), filtered through the family's Check hook.
// Every returned Spec carries its canonical full name and parses back
// identically, so it is directly buildable and cache-keyable. A family
// with no parameters enumerates to exactly its base name.
func (i *Info) Enumerate(opts EnumOptions) ([]Spec, error) {
	if len(i.Params) == 0 {
		return []Spec{{Name: i.Name, Info: i}}, nil
	}
	values := make([][]Value, len(i.Params))
	total := 1
	for pi, p := range i.Params {
		vs, err := paramValues(i, p, opts)
		if err != nil {
			return nil, err
		}
		values[pi] = vs
		total *= len(vs)
		if total > maxSpace {
			return nil, fmt.Errorf("design: %s: enumeration exceeds %d specs; lower EnumOptions.MaxPerParam", i.Name, maxSpace)
		}
	}
	var out []Spec
	idx := make([]int, len(values))
	for {
		vals := make([]Value, len(values))
		for pi, j := range idx {
			vals[pi] = values[pi][j]
		}
		if i.Check == nil || i.Check(vals) == nil {
			out = append(out, Spec{Name: specName(i, vals), Info: i, Values: vals})
		}
		// Odometer increment, last parameter fastest.
		pi := len(idx) - 1
		for ; pi >= 0; pi-- {
			idx[pi]++
			if idx[pi] < len(values[pi]) {
				break
			}
			idx[pi] = 0
		}
		if pi < 0 {
			return out, nil
		}
	}
}

// Neighbors returns the specs one ladder step away from s in each
// parameter dimension: the adjacent candidate values of the same
// enumeration ladders Enumerate uses (so neighbors are always members of
// the enumerated space), filtered through the family's Check hook. A
// value that sits between two ladder rungs gets both bracketing rungs as
// its neighbors. The result excludes s itself and is deterministic:
// parameter-major, lower rung before higher.
func (i *Info) Neighbors(s Spec, opts EnumOptions) ([]Spec, error) {
	if s.Info != i {
		return nil, fmt.Errorf("design: Neighbors: spec %q is not a %s spec", s.Name, i.Name)
	}
	if len(i.Params) == 0 {
		return nil, nil
	}
	var out []Spec
	seen := map[string]bool{specName(i, s.Values): true}
	for pi, p := range i.Params {
		vs, err := paramValues(i, p, opts)
		if err != nil {
			return nil, err
		}
		for _, nv := range adjacent(p, s.Values[pi], vs) {
			vals := make([]Value, len(s.Values))
			copy(vals, s.Values)
			vals[pi] = nv
			name := specName(i, vals)
			if seen[name] {
				continue
			}
			seen[name] = true
			if i.Check == nil || i.Check(vals) == nil {
				out = append(out, Spec{Name: name, Info: i, Values: vals})
			}
		}
	}
	return out, nil
}

// adjacent picks the ladder values bordering cur: the rungs at index-1
// and index+1 when cur sits on the ladder, the two bracketing rungs when
// it does not.
func adjacent(p Param, cur Value, ladder []Value) []Value {
	if p.Enum != nil {
		for j, v := range ladder {
			if v.Raw == cur.Raw {
				return ladderAround(ladder, j, j)
			}
		}
		return nil
	}
	lo := -1 // last rung strictly below cur
	for j, v := range ladder {
		if v.Int == cur.Int {
			return ladderAround(ladder, j, j)
		}
		if v.Int < cur.Int {
			lo = j
		}
	}
	return ladderAround(ladder, lo+1, lo) // bracketing rungs [lo, lo+1]
}

// ladderAround returns ladder[loIdx-1] and ladder[hiIdx+1] where they
// exist — shared tail of the on-rung and between-rungs cases.
func ladderAround(ladder []Value, loIdx, hiIdx int) []Value {
	var out []Value
	if loIdx-1 >= 0 {
		out = append(out, ladder[loIdx-1])
	}
	if hiIdx+1 < len(ladder) {
		out = append(out, ladder[hiIdx+1])
	}
	return out
}

// paramValues enumerates the candidate values of one parameter.
func paramValues(i *Info, p Param, opts EnumOptions) ([]Value, error) {
	if p.Enum != nil {
		out := make([]Value, len(p.Enum))
		for j, tok := range p.Enum {
			out[j] = Value{Raw: tok}
		}
		return out, nil
	}
	var ints []int
	if p.Pow2 {
		ints = pow2Ladder(p.Min, p.Max, opts.maxPerParam())
		if len(ints) == 0 {
			return nil, fmt.Errorf("design: %s: <%s> has no power of two in [%d, %d]", i.Name, p.Name, p.Min, p.Max)
		}
	} else {
		ints = intLadder(p.Min, p.Max, opts.maxPerParam())
	}
	out := make([]Value, len(ints))
	for j, v := range ints {
		out[j] = Value{Raw: strconv.Itoa(v), Int: v}
	}
	return out, nil
}

// intLadder subsamples [min, max] on a geometric ladder: both endpoints
// always present, interior rungs doubling (then quadrupling, and so on)
// from max(min, 1) until at most cap values remain.
func intLadder(min, max, cap int) []int {
	if min >= max {
		return []int{min}
	}
	start := min
	if start < 1 {
		start = 1
	}
	for factor := 2; ; factor *= 2 {
		vals := []int{min}
		for v := start; v < max; v *= factor {
			if v > min {
				vals = append(vals, v)
			}
		}
		vals = append(vals, max)
		if len(vals) <= cap || factor > max {
			return vals
		}
	}
}

// pow2Ladder enumerates the powers of two in [min, max], widening the
// stride (skipping every other rung, then three of four, ...) until at
// most cap values remain; the largest admissible power of two is always
// kept so the range's top stays reachable.
func pow2Ladder(min, max, cap int) []int {
	lo := 1
	for lo < min {
		lo <<= 1
	}
	if lo > max {
		return nil
	}
	hi := lo
	for hi<<1 <= max && hi<<1 > 0 {
		hi <<= 1
	}
	for shift := 1; ; shift *= 2 {
		var vals []int
		for v := lo; v <= max && v > 0; v <<= shift {
			vals = append(vals, v)
		}
		if vals[len(vals)-1] != hi {
			vals = append(vals, hi)
		}
		if len(vals) <= cap || 1<<shift > max {
			return vals
		}
	}
}

// specName renders the canonical full name of a value assignment:
// the base name followed by every parameter value, including trailing
// optional ones, so the name round-trips through Parse unambiguously.
func specName(i *Info, vals []Value) string {
	if len(vals) == 0 {
		return i.Name
	}
	var b strings.Builder
	b.WriteString(i.Name)
	for _, v := range vals {
		b.WriteByte('-')
		b.WriteString(v.Raw)
	}
	return b.String()
}
