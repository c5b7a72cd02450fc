// Package cli holds the flag helpers shared by the cmd/ drivers.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRanks parses a comma-separated list of rank counts (each >= 1), the
// value of the drivers' -ranks flag.
func ParseRanks(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-ranks: bad rank count %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}
