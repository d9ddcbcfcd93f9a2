package modgraph

// Lowerings exposes the fixpoint's lowering count to the external tests.
func (g *Graph) Lowerings() int { return g.lowerings }
