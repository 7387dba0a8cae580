package routing

import (
	"fmt"
	"sort"
	"strings"
)

// factories maps lowercase mechanism names to constructors.
var factories = map[string]func() Mechanism{
	"min":         func() Mechanism { return newMinimal() },
	"obl-rrg":     func() Mechanism { return newOblivious(rrg) },
	"obl-crg":     func() Mechanism { return newOblivious(crg) },
	"src-rrg":     func() Mechanism { return newPiggyBack(rrg) },
	"src-crg":     func() Mechanism { return newPiggyBack(crg) },
	"in-trns-rrg": func() Mechanism { return newInTransit(rrg) },
	"in-trns-crg": func() Mechanism { return newInTransit(crg) },
	"in-trns-mm":  func() Mechanism { return newInTransit(mm) },
	"in-trns-nrg": func() Mechanism { return newInTransit(nrg) },
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
