package ir

// Test-only access to the affine context's def index.

// EagerAffineCtx returns a derivation context whose def index is built up
// front by an independent walk of the region: the reference the lazily
// indexed context is checked against.
func (r *Region) EagerAffineCtx(l *Loop) *AffineCtx {
	c := r.newAffineCtx(l)
	c.defs = map[Value][]*Op{}
	for _, o := range r.AllOps() {
		if o.Dst != NoValue {
			c.defs[o.Dst] = append(c.defs[o.Dst], o)
		}
	}
	return c
}

// DefIndex returns the context's def index, nil while it is unbuilt.
func (c *AffineCtx) DefIndex() map[Value][]*Op { return c.defs }
