package skew

// RandProg exposes quick_test.go's random program generator to the
// external test package, which needs the compiler as well.
var RandProg = randProg

// EvalBudget is the analysis work budget.
const EvalBudget = evalBudget
