package compiler

// Region-by-region parallelism selection (paper §4.2) picks one of these
// techniques per region: statistical DOALL loops are taken outright (no
// communication or synchronization — the most efficient parallelism),
// otherwise coupled-mode ILP and fine-grain TLP (DSWP or eBUG strands)
// compete against serial, by measurement (measured.go) or by the static
// classifier (adaptive.go). Regions too small to amortize any
// parallelization overhead stay serial.

// Choice names the technique selected for a region.
type Choice int

// Selection outcomes (Figure 3's categories).
const (
	ChoseSingle Choice = iota
	ChoseILP
	ChoseFTLP
	ChoseLLP
)

// String names the choice.
func (c Choice) String() string {
	switch c {
	case ChoseSingle:
		return "single core"
	case ChoseILP:
		return "ILP"
	case ChoseFTLP:
		return "fine-grain TLP"
	case ChoseLLP:
		return "LLP"
	}
	return "choice?"
}

// minRegionOps is the dynamic-size floor below which a region is not worth
// parallelizing (thread spawn and communication overheads dominate).
const minRegionOps = 64
