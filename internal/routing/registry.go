package routing

import (
	"fmt"
	"sort"
	"strings"
)

// factories maps lowercase mechanism names to constructors.
var factories = map[string]func() Mechanism{
	"min":         func() Mechanism { return NewMinimal() },
	"obl-rrg":     func() Mechanism { return NewOblivious(RRG) },
	"obl-crg":     func() Mechanism { return NewOblivious(CRG) },
	"src-rrg":     func() Mechanism { return NewPiggyBack(RRG) },
	"src-crg":     func() Mechanism { return NewPiggyBack(CRG) },
	"in-trns-rrg": func() Mechanism { return NewInTransit(RRG) },
	"in-trns-crg": func() Mechanism { return NewInTransit(CRG) },
	"in-trns-mm":  func() Mechanism { return NewInTransit(MM) },
	"in-trns-nrg": func() Mechanism { return NewInTransit(NRG) },
}

// ByName builds a routing mechanism from its paper label
// (case-insensitive), e.g. "MIN", "Obl-CRG", "Src-RRG", "In-Trns-MM".
func ByName(name string) (Mechanism, error) {
	f, ok := factories[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("routing: unknown mechanism %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// Names lists the registered mechanism names in sorted order.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
