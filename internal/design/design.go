// Package design is the self-registering catalog of memory organizations:
// the single source of truth the engine (internal/exp), the public
// hybridmem API, the CLIs and the README all resolve design names
// through, instead of hard-wiring constructors into a switch.
//
// Each organization package (internal/baselines/*, internal/core)
// registers, from an init function, an Info: a base name, a one-line doc,
// a constructor, and a parameter grammar — typed parameters with ranges
// (and an optional cross-parameter Check hook). Importing
// hybridmem/internal/design/all links every built-in organization into
// the registry, so adding a design is a one-package change: implement it,
// register it, add one blank import to the aggregator.
//
// # Design-name grammar
//
// A design name is a registered base name, optionally followed by one
// "-<value>" field per declared parameter:
//
//	name  = base *( "-" value )
//	base  = a registered name, e.g. "MPOD", "DFC", "H2DSE"
//	value = decimal integer or enum token, per the parameter's type
//
// Parameters are positional. Every field is validated at parse time
// against the registered ranges, power-of-two constraints, enum sets and
// Check hooks, so a malformed-but-parseable name such as "DFC-0",
// "IDEAL--3" or "H2DSE-0-0-0" fails in Parse — before any simulation
// state is built — instead of panicking deep inside a constructor.
// Trailing optional parameters may be omitted and take their declared
// defaults: "DFC" means "DFC-1024".
//
// Base names may themselves contain hyphens ("SILC-FM", "H2-CacheOnly");
// exact-name matches win over prefix matches, and among prefix matches
// the longest registered base wins.
//
// AllInfos lists the live registry (cmd/experiments -designs and
// cmd/hybrid2sim -designs print it); Parse resolves a name to a
// validated Spec; Spec.Build constructs the organization over fresh
// devices, converting any residual constructor panic into an error.
package design

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Kind groups registered designs the way the paper's evaluation does.
type Kind int

const (
	// KindBaseline is the no-NM normalization point.
	KindBaseline Kind = iota
	// KindMain designs appear in the paper's Figures 12-18.
	KindMain
	// KindExtra designs are §2 related work beyond the paper's figures.
	KindExtra
	// KindVariant designs are parameterized studies: ideal caches,
	// Fig. 14 ablations, Fig. 11 DSE points, sensitivity sweeps.
	KindVariant
)

func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindMain:
		return "main"
	case KindExtra:
		return "extra"
	case KindVariant:
		return "variant"
	}
	return "kind?"
}

// Param is one typed parameter of a design-name grammar.
type Param struct {
	Name string
	Doc  string
	// Min and Max bound integer values inclusively; Register rejects
	// Max <= 0 or Max < Min. Ignored for enum parameters.
	Min, Max int
	// Pow2 additionally requires a positive power of two.
	Pow2 bool
	// Enum non-nil makes this a token parameter: the value must be one
	// of these strings and Value.Int is not set.
	Enum []string
	// Optional parameters may be omitted (trailing only) and then take
	// Default.
	Optional bool
	Default  int
}

// Value is one parsed parameter value.
type Value struct {
	Raw string
	Int int // set for integer parameters only
}

// Builder constructs a registered organization from a validated Spec.
// nm is nil when the design's NeedsNM is false. The organization must
// reset (memtypes.Resetter), so the engine can reuse every machine.
type Builder func(spec Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error)

// Info describes one registered design family.
type Info struct {
	// Name is the base name ("MPOD", "DFC", "H2DSE", "SILC-FM").
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Kind and Order place the design in the paper's listing order.
	Kind  Kind
	Order int
	// NeedsNM reports whether the design uses near memory. The engine
	// collapses all NM ratios to one run when it is false.
	NeedsNM bool
	// Params is the positional parameter grammar after the base name.
	Params []Param
	// Example is a fully parameterized sample name; defaults to Name
	// for designs whose parameters are all optional or absent.
	Example string
	// Check validates cross-parameter constraints after the per-param
	// range checks pass. vals has one entry per Param.
	Check func(vals []Value) error
	// Build constructs the organization.
	Build Builder
}

// Grammar renders the full name grammar, e.g.
// "H2DSE-<cacheMB>-<sectorKB>-<lineB>" or "DFC[-<lineB>]".
func (i *Info) Grammar() string {
	var b strings.Builder
	b.WriteString(i.Name)
	for _, p := range i.Params {
		if p.Optional {
			fmt.Fprintf(&b, "[-<%s>]", p.Name)
		} else {
			fmt.Fprintf(&b, "-<%s>", p.Name)
		}
	}
	return b.String()
}

// SampleName returns Example, or Name when the design needs no explicit
// parameters to be runnable.
func (i *Info) SampleName() string {
	if i.Example != "" {
		return i.Example
	}
	return i.Name
}

var (
	regMu  sync.RWMutex
	byName = map[string]*Info{}
)

// Register adds a design family to the registry. It is intended to be
// called from init functions of the organization packages and panics on
// a nil builder, a duplicate or parameter-grammar mistakes, which are
// programming errors.
func Register(info Info) {
	if info.Name == "" || info.Build == nil {
		panic("design: Register needs a name and a builder")
	}
	seenOptional := false
	for _, p := range info.Params {
		if p.Name == "" {
			panic("design: " + info.Name + ": unnamed parameter")
		}
		if p.Enum == nil && (p.Max <= 0 || p.Max < p.Min) {
			panic("design: " + info.Name + ": <" + p.Name + "> needs a range with Min <= Max and Max > 0")
		}
		if seenOptional && !p.Optional {
			panic("design: " + info.Name + ": required parameter after an optional one")
		}
		seenOptional = seenOptional || p.Optional
	}
	if len(info.Params) > 0 && info.Example == "" && !info.Params[0].Optional {
		panic("design: " + info.Name + ": parameterized designs need an Example")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[info.Name]; dup {
		panic("design: duplicate registration of " + info.Name)
	}
	byName[info.Name] = &info
}

// AllInfos returns every registered design, sorted by Kind, then Order,
// then Name. The entries are shared; callers must not mutate them.
func AllInfos() []*Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Info, 0, len(byName))
	for _, i := range byName {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		if out[a].Order != out[b].Order {
			return out[a].Order < out[b].Order
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Names returns the base names of one kind, in registered Order — the
// registry-backed replacement for hard-coded design lists.
func Names(kind Kind) []string {
	var out []string
	for _, i := range AllInfos() {
		if i.Kind == kind {
			out = append(out, i.Name)
		}
	}
	return out
}

// LookupInfo returns the registered family of a base name.
func LookupInfo(base string) (*Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := byName[base]
	return i, ok
}

// RemapEntries is the shared remap-cache sizing of the migration
// baselines: the same on-chip SRAM budget Hybrid2 spends on its XTA, one
// entry per (scaled) DRAM-cache sector.
func RemapEntries(sys config.System) int {
	return int(sys.Hybrid2CacheBytes() / config.SectorBytes)
}

// Spec is a validated, buildable design resolution.
type Spec struct {
	// Name is the full design string as given to Parse.
	Name   string
	Info   *Info
	Values []Value // one per Info.Params, defaults filled in
}

// Int returns the integer value of the named parameter.
func (s Spec) Int(param string) int {
	for i, p := range s.Info.Params {
		if p.Name == param {
			return s.Values[i].Int
		}
	}
	panic("design: " + s.Info.Name + " has no parameter " + param)
}

// Raw returns the textual value of the named parameter.
func (s Spec) Raw(param string) string {
	for i, p := range s.Info.Params {
		if p.Name == param {
			return s.Values[i].Raw
		}
	}
	panic("design: " + s.Info.Name + " has no parameter " + param)
}

// Parse resolves a design name to a validated Spec: base-name lookup,
// positional parameter parsing, range/pow2/enum checks, defaults for
// omitted trailing optional parameters, then the family's Check hook.
// Every error is a parse-time error; a Spec that parses is buildable up
// to system-dependent capacity constraints.
func Parse(name string) (Spec, error) {
	if info, ok := LookupInfo(name); ok {
		vals, err := defaults(info)
		if err != nil {
			return Spec{}, err
		}
		return finish(name, info, vals)
	}
	info := longestBase(name)
	if info == nil {
		return Spec{}, fmt.Errorf("design: unknown design %q", name)
	}
	if len(info.Params) == 0 {
		return Spec{}, fmt.Errorf("design: %s takes no parameters, got %q", info.Name, name)
	}
	fields := strings.Split(name[len(info.Name)+1:], "-")
	required := 0
	for _, p := range info.Params {
		if !p.Optional {
			required++
		}
	}
	if len(fields) < required || len(fields) > len(info.Params) {
		return Spec{}, fmt.Errorf("design: %q: want %s, got %d parameter(s)",
			name, info.Grammar(), len(fields))
	}
	vals := make([]Value, len(info.Params))
	for i, p := range info.Params {
		if i >= len(fields) {
			vals[i] = Value{Raw: strconv.Itoa(p.Default), Int: p.Default}
			continue
		}
		v, err := parseValue(info, p, fields[i])
		if err != nil {
			return Spec{}, err
		}
		vals[i] = v
	}
	return finish(name, info, vals)
}

// finish applies the family Check hook and assembles the Spec.
func finish(name string, info *Info, vals []Value) (Spec, error) {
	if info.Check != nil {
		if err := info.Check(vals); err != nil {
			return Spec{}, fmt.Errorf("design: %q: %w", name, err)
		}
	}
	return Spec{Name: name, Info: info, Values: vals}, nil
}

// defaults fills the value list of a bare base name, failing if any
// parameter is required.
func defaults(info *Info) ([]Value, error) {
	vals := make([]Value, len(info.Params))
	for i, p := range info.Params {
		if !p.Optional {
			return nil, fmt.Errorf("design: %s requires parameters: %s", info.Name, info.Grammar())
		}
		vals[i] = Value{Raw: strconv.Itoa(p.Default), Int: p.Default}
	}
	return vals, nil
}

// longestBase finds the registered family whose "Name-" is the longest
// prefix of name, so "H2DSE-64-2-256" resolves to H2DSE even though
// families like "H2-CacheOnly" share the "H2" spelling.
func longestBase(name string) *Info {
	regMu.RLock()
	defer regMu.RUnlock()
	var best *Info
	for _, i := range byName {
		if strings.HasPrefix(name, i.Name+"-") && (best == nil || len(i.Name) > len(best.Name)) {
			best = i
		}
	}
	return best
}

// parseValue validates one positional field against its parameter.
func parseValue(info *Info, p Param, raw string) (Value, error) {
	if raw == "" {
		return Value{}, fmt.Errorf("design: %s: empty value for <%s>", info.Name, p.Name)
	}
	if p.Enum != nil {
		for _, e := range p.Enum {
			if raw == e {
				return Value{Raw: raw}, nil
			}
		}
		return Value{}, fmt.Errorf("design: %s: <%s> must be one of %s, got %q",
			info.Name, p.Name, strings.Join(p.Enum, "|"), raw)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return Value{}, fmt.Errorf("design: %s: <%s> must be an integer, got %q", info.Name, p.Name, raw)
	}
	if v < p.Min || v > p.Max {
		return Value{}, fmt.Errorf("design: %s: <%s> = %d out of range [%d, %d]",
			info.Name, p.Name, v, p.Min, p.Max)
	}
	if p.Pow2 && (v <= 0 || v&(v-1) != 0) {
		return Value{}, fmt.Errorf("design: %s: <%s> = %d must be a power of two", info.Name, p.Name, v)
	}
	return Value{Raw: raw, Int: v}, nil
}

// Build parses a design name and constructs it over fresh devices; the
// one-call form of Parse followed by Spec.Build.
func Build(name string, sys config.System) (memtypes.Resetter, *memsys.Device, *memsys.Device, error) {
	spec, err := Parse(name)
	if err != nil {
		return nil, nil, nil, err
	}
	return spec.Build(sys)
}

// Build constructs the design over fresh devices: a DDR4 far memory
// always, an HBM2 near memory when the family declares NeedsNM. A panic
// escaping the constructor — a residual capacity constraint the parse
// could not check without the system size — is converted into an error,
// so no caller needs panic containment around construction.
func (s Spec) Build(sys config.System) (ms memtypes.Resetter, nm, fm *memsys.Device, err error) {
	if s.Info == nil {
		return nil, nil, nil, errors.New("design: Build on a zero Spec")
	}
	defer func() {
		if p := recover(); p != nil {
			ms, nm, fm = nil, nil, nil
			err = fmt.Errorf("design: build %s: %v", s.Name, p)
		}
	}()
	fm = memsys.New(memsys.DDR4Config())
	if s.Info.NeedsNM {
		nm = memsys.New(memsys.HBM2Config())
	}
	ms, err = s.Info.Build(s, sys, nm, fm)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("design: build %s: %w", s.Name, err)
	}
	return ms, nm, fm, nil
}
