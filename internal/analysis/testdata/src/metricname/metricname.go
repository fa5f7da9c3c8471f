// Fixture for the metricname analyzer: constant well-formed names
// pass, dynamic or malformed names fail, duplicate registrations fail.
package metricname

import (
	"fmt"

	"obs"
)

const reqTotal = "aitf_requests_total"

func register(r *obs.Registry) {
	r.Counter(reqTotal, "constant through a named const: fine")
	r.Counter("aitf_drops_total", "literal: fine")
	r.CounterFunc("aitf_scraped_total", "func instrument: fine", func() uint64 { return 0 })
	r.GaugeFunc("aitf_fill_ratio", "gauge func: fine", func() float64 { return 0 })
	r.Histogram("aitf_batch_size", "histogram: fine")

	r.Counter("requests_total", "missing prefix") // want "does not match the schema pattern"
	r.Counter("aitf_Bad-Name", "bad charset")     // want "does not match the schema pattern"

	name := fmt.Sprintf("aitf_%s_total", "dyn")
	r.Counter(name, "dynamically built") // want "must be a constant string"

	r.Counter("aitf_requests_total", "same-package duplicate") // want "already registered"
}
