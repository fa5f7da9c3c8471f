// Package obstest holds test support shared by the packages that
// expose metrics: a checker that /metrics output stays machine-readable.
package obstest

import (
	"fmt"
	"strconv"
	"strings"
)

// CheckExposition validates Prometheus text-format output: every
// non-comment line must be `name[{labels}] value` with a parseable
// value, and every sample must belong to a family announced by a
// preceding # TYPE line.
func CheckExposition(text string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no sample value: %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = name[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && typed[base] {
				family = base
				break
			}
		}
		if !typed[family] {
			return fmt.Errorf("line %d: sample %q has no # TYPE", ln+1, name)
		}
		if val != "+Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("line %d: bad value %q: %v", ln+1, val, err)
			}
		}
	}
	return nil
}
