package ast

// Visitor is called for every node during Walk; returning false prunes the
// subtree below the node.
type Visitor func(Node) bool

// Walk traverses the tree rooted at n in source order, calling v for each
// node before its children.
func Walk(n Node, v Visitor) {
	if n == nil || !v(n) {
		return
	}
	switch x := n.(type) {
	case *Module:
		for _, c := range x.Configs {
			Walk(c, v)
		}
		for _, p := range x.Procs {
			Walk(p, v)
		}
	case *ProcDecl:
		for _, p := range x.Params {
			Walk(p.Name, v)
		}
		Walk(x.Body, v)
	case *BlockStmt:
		for _, s := range x.Stmts {
			Walk(s, v)
		}
	case *VarDecl:
		Walk(x.Name, v)
		if x.Init != nil {
			Walk(x.Init, v)
		}
	case *AssignStmt:
		Walk(x.Lhs, v)
		Walk(x.Rhs, v)
	case *IncDecStmt:
		Walk(x.X, v)
	case *ExprStmt:
		Walk(x.X, v)
	case *CallStmt:
		Walk(x.X, v)
	case *BeginStmt:
		for _, w := range x.With {
			Walk(w.Name, v)
		}
		Walk(x.Body, v)
	case *SyncStmt:
		Walk(x.Body, v)
	case *IfStmt:
		Walk(x.Cond, v)
		Walk(x.Then, v)
		if x.Else != nil {
			Walk(x.Else, v)
		}
	case *WhileStmt:
		Walk(x.Cond, v)
		Walk(x.Body, v)
	case *ForStmt:
		Walk(x.Var, v)
		Walk(x.Range, v)
		Walk(x.Body, v)
	case *ReturnStmt:
		if x.Value != nil {
			Walk(x.Value, v)
		}
	case *ProcStmt:
		Walk(x.Proc, v)
	case *BinaryExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *UnaryExpr:
		Walk(x.X, v)
	case *CallExpr:
		Walk(x.Fun, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *MethodCallExpr:
		Walk(x.Recv, v)
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *RangeExpr:
		Walk(x.Lo, v)
		Walk(x.Hi, v)
	case *Ident, *IntLit, *BoolLit, *StringLit:
		// Leaves.
	}
}

// CountBegins returns the number of begin statements in the subtree,
// including nested ones.
func CountBegins(n Node) int {
	count := 0
	Walk(n, func(m Node) bool {
		if _, ok := m.(*BeginStmt); ok {
			count++
		}
		return true
	})
	return count
}

// HasBegin reports whether the subtree contains any begin statement. It
// stops walking at the first one.
func HasBegin(n Node) bool {
	found := false
	Walk(n, func(m Node) bool {
		if _, ok := m.(*BeginStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
