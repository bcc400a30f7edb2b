package skew

// RandProg exposes quick_test.go's random program generator to the
// external test package, which needs the compiler as well.
var RandProg = randProg

// EvalBudget is the analysis work budget.
const EvalBudget = evalBudget

// CountWalked has f called, until stop, with the pushes each evaluation
// walks: its evals less those reused walks stand for.
func CountWalked(f func(walked int64)) (stop func()) {
	evaluated = f
	return func() { evaluated = nil }
}
