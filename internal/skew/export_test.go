package skew

// EvalBudget is the analysis work budget.
const EvalBudget = evalBudget

// CountWalked has f called, until stop, with the pushes each evaluation
// walks: its evals less those reused walks stand for.
func CountWalked(f func(walked int64)) (stop func()) {
	evaluated = f
	return func() { evaluated = nil }
}
