// Fixture stand-in for aitf/internal/obs: just enough Registry
// surface for the metricname analyzer (which matches the Registry
// type by name and package base, so this fixture exercises the real
// code path).
package obs

type Counter struct{ v uint64 }

type Histogram struct{ n uint64 }

type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter { return &Counter{} }

func (r *Registry) CounterFunc(name, help string, fn func() uint64) {}

func (r *Registry) GaugeFunc(name, help string, fn func() float64) {}

func (r *Registry) Histogram(name, help string) *Histogram { return &Histogram{} }
